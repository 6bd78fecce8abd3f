//! Chaos laboratory integration: seeded nemesis runs judged by the
//! serializability checker, across the full protocol matrix.
//!
//! The PR-sized matrix lives here (a few seeds per protocol); the wide
//! seed matrices run through `examples/chaos.rs` in the `chaos-smoke` CI
//! job (8 seeds × {TQ, PC}) and the nightly `chaos-matrix` workflow
//! (64 seeds × all five RCPs).

use rainbow_check::{check_history, fixtures};
use rainbow_common::protocol::{CcpKind, ProtocolStack, RcpKind};
use rainbow_common::txn::TxnSpec;
use rainbow_common::Operation;
use rainbow_control::{generate_schedule, run_nemesis, NemesisConfig};
use rainbow_core::{Cluster, ClusterConfig};
use std::time::Duration;

/// A nemesis shape small enough for PR-test latency but still exercising
/// every event kind with real concurrency.
fn quick_nemesis() -> NemesisConfig {
    NemesisConfig {
        spec_transactions: 24,
        interactive_transactions: 6,
        events: 5,
        ..NemesisConfig::default()
    }
}

#[test]
fn nemesis_replays_a_seed_bit_for_bit() {
    let config = quick_nemesis().with_rcp(RcpKind::QuorumConsensus);
    let first = run_nemesis(&config, 11).expect("nemesis run");
    let second = run_nemesis(&config, 11).expect("nemesis replay");
    // The replayable inputs are identical: the schedule (and the seeded
    // workload behind it) is a pure function of the seed.
    assert_eq!(first.schedule, second.schedule);
    assert_eq!(first.schedule, generate_schedule(&config, 11));
    assert!(first.passed(), "{}", first.summary());
    assert!(second.passed(), "{}", second.summary());
    // Both runs processed the whole seeded workload.
    assert!(first.committed > 0);
    assert!(
        first.committed + first.aborted + first.orphaned >= config.spec_transactions,
        "{}",
        first.summary()
    );
}

#[test]
fn every_rcp_is_serializable_under_chaos() {
    for rcp in RcpKind::ALL {
        for seed in [1u64, 2] {
            let report = run_nemesis(&quick_nemesis().with_rcp(rcp), seed).expect("nemesis run");
            assert!(
                report.passed(),
                "{rcp} seed {seed} failed:\n{}\nschedule:\n{}",
                report.summary(),
                rainbow_control::format_schedule(&report.schedule)
            );
        }
    }
}

#[test]
fn every_ccp_is_serializable_under_chaos() {
    for ccp in [
        CcpKind::TwoPhaseLocking,
        CcpKind::TimestampOrdering,
        CcpKind::MultiversionTimestampOrdering,
    ] {
        let report = run_nemesis(&quick_nemesis().with_ccp(ccp), 5).expect("nemesis run");
        assert!(
            report.passed(),
            "{ccp:?} failed:\n{}\nschedule:\n{}",
            report.summary(),
            rainbow_control::format_schedule(&report.schedule)
        );
    }
}

#[test]
fn checker_rejects_every_anomaly_fixture_and_accepts_serial_history() {
    for (name, history) in fixtures::rejected() {
        let report = check_history(&history);
        assert!(!report.is_serializable(), "{name} must be rejected");
    }
    assert!(check_history(&fixtures::committed_serial()).is_serializable());
}

#[test]
fn spec_replay_and_interactive_conversations_emit_identical_history_shapes() {
    let stack = ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(200))
        .with_quorum_timeout(Duration::from_millis(500))
        .with_commit_timeout(Duration::from_millis(500));
    let base = ClusterConfig::quick(3, 4, 3).unwrap();
    let cluster = Cluster::start(ClusterConfig {
        stack,
        record_history: true,
        ..base
    })
    .unwrap();

    // The same logical transaction, one-shot...
    let spec = TxnSpec::new(
        "spec",
        vec![
            Operation::read("x0"),
            Operation::write("x1", 5i64),
            Operation::increment("x2", 3),
        ],
    );
    assert!(cluster.submit(spec).committed());

    // ...and conversationally.
    let mut client = cluster.client();
    let mut txn = client.begin("conversation").unwrap();
    txn.read("x0").unwrap();
    txn.write("x1", 5i64).unwrap();
    txn.increment("x2", 3).unwrap();
    txn.commit().unwrap();
    drop(client);

    assert!(cluster.await_history_quiescence(Duration::from_secs(5)));
    let history = cluster.history().expect("recording on");
    assert_eq!(history.len(), 2);
    let (spec_rec, conv_rec) = (&history.records[0], &history.records[1]);
    assert!(spec_rec.committed() && conv_rec.committed());
    // Identical footprint shape: same read items in the same order, same
    // write items in the same order. (Values/versions differ where the
    // second transaction sees the first one's effects — that is the data,
    // not the shape.)
    let read_items =
        |r: &rainbow_common::TxnRecord| r.reads.iter().map(|o| o.item.clone()).collect::<Vec<_>>();
    let write_items =
        |r: &rainbow_common::TxnRecord| r.writes.iter().map(|w| w.item.clone()).collect::<Vec<_>>();
    assert_eq!(read_items(spec_rec), read_items(conv_rec));
    assert_eq!(write_items(spec_rec), write_items(conv_rec));

    // And the combined history is, of course, serializable.
    let report = check_history(&history);
    assert!(report.is_serializable(), "{:?}", report.violations);
}
