//! Failure-injection integration tests (experiment E-FAIL): crashes,
//! partitions, recoveries, orphan transactions and replica convergence.

use rainbow_common::protocol::{ProtocolStack, RcpKind};
use rainbow_common::txn::{AbortLayer, TxnSpec};
use rainbow_common::{ItemId, Operation, SiteId, Value};
use rainbow_control::{ProgressRunner, Session};
use rainbow_wlg::{ArrivalProcess, WorkloadProfile};
use std::time::Duration;

fn stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(150))
        .with_quorum_timeout(Duration::from_millis(400))
        .with_commit_timeout(Duration::from_millis(400))
}

fn session(sites: usize, items: usize, degree: usize, rcp: RcpKind) -> Session {
    let mut session = Session::new();
    session.configure_sites(sites).unwrap();
    session.configure_protocols(stack().with_rcp(rcp)).unwrap();
    session
        .configure_uniform_database(items, 100, degree)
        .unwrap();
    session.set_client_timeout(Duration::from_secs(3));
    session.start().unwrap();
    session
}

#[test]
fn qc_tolerates_a_minority_crash_but_rowa_writes_block() {
    // Quorum consensus keeps committing writes with 1 of 3 copies down.
    let qc = session(3, 6, 3, RcpKind::QuorumConsensus);
    qc.crash_site(SiteId(2)).unwrap();
    let result = qc
        .submit(TxnSpec::new("w", vec![Operation::write("x0", 1i64)]))
        .unwrap();
    assert!(result.committed(), "QC outcome: {:?}", result.outcome);

    // ROWA cannot write with any copy holder down.
    let rowa = session(3, 6, 3, RcpKind::Rowa);
    rowa.crash_site(SiteId(2)).unwrap();
    let result = rowa
        .submit(TxnSpec::new("w", vec![Operation::write("x0", 1i64)]))
        .unwrap();
    assert!(
        !result.committed(),
        "ROWA write must not commit with a copy holder down: {:?}",
        result.outcome
    );
    // ...but ROWA reads still work (read one copy).
    let read = rowa
        .submit(TxnSpec::new("r", vec![Operation::read("x0")]))
        .unwrap();
    assert!(read.committed(), "ROWA read outcome: {:?}", read.outcome);

    // The abort was attributed to the replication layer.
    let stats = rowa.statistics().unwrap();
    assert!(stats.aborts.layer(AbortLayer::Rcp) >= 1);
}

#[test]
fn crashing_a_majority_stops_qc_until_recovery() {
    let session = session(5, 5, 5, RcpKind::QuorumConsensus);
    session.crash_site(SiteId(3)).unwrap();
    session.crash_site(SiteId(4)).unwrap();
    // Majority of 5 is 3; with 2 down writes still commit.
    let ok = session
        .submit(TxnSpec::new("w", vec![Operation::write("x0", 1i64)]))
        .unwrap();
    assert!(ok.committed(), "outcome: {:?}", ok.outcome);

    session.crash_site(SiteId(2)).unwrap();
    // Now only 2 of 5 copies are alive: below the write quorum.
    let blocked = session
        .submit(TxnSpec::new("w", vec![Operation::write("x0", 2i64)]))
        .unwrap();
    assert!(!blocked.committed());

    // Recovery restores availability and the earlier committed value.
    session.recover_site(SiteId(2)).unwrap();
    session.recover_site(SiteId(3)).unwrap();
    session.recover_site(SiteId(4)).unwrap();
    let read = session
        .submit(TxnSpec::new("r", vec![Operation::read("x0")]))
        .unwrap();
    assert!(read.committed());
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(1)));
}

#[test]
fn transactions_submitted_to_a_crashed_home_site_become_orphans() {
    let session = session(3, 6, 3, RcpKind::QuorumConsensus);
    session.crash_site(SiteId(1)).unwrap();
    let result = session
        .submit(TxnSpec::new("orphan", vec![Operation::read("x0")]).at_site(SiteId(1)))
        .unwrap();
    assert!(result.outcome.is_orphaned());
    let stats = session.statistics().unwrap();
    assert_eq!(stats.orphans, 1);
}

#[test]
fn a_network_partition_blocks_cross_group_quorums_and_heals() {
    let session = session(4, 8, 4, RcpKind::QuorumConsensus);
    // Split 2/2: no group has a majority of the 4 copies (write quorum = 3).
    session
        .partition(&[vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]])
        .unwrap();
    let blocked = session
        .submit(TxnSpec::new("w", vec![Operation::write("x0", 9i64)]).at_site(SiteId(0)))
        .unwrap();
    assert!(
        !blocked.committed(),
        "a 2/2 partition must block write quorums of 3: {:?}",
        blocked.outcome
    );

    session.heal_partition().unwrap();
    let after = session
        .submit(TxnSpec::new("w2", vec![Operation::write("x0", 10i64)]).at_site(SiteId(0)))
        .unwrap();
    assert!(after.committed(), "outcome after heal: {:?}", after.outcome);
}

#[test]
fn crash_recover_cycles_during_a_workload_leave_replicas_consistent() {
    let session = session(4, 10, 3, RcpKind::QuorumConsensus);
    // Run a write-heavy workload while repeatedly bouncing one site.
    let workload = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            session.run_generated(
                WorkloadProfile::WriteHeavy,
                60,
                ArrivalProcess::Closed { mpl: 6 },
            )
        });
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(150));
            session.crash_site(SiteId(3)).unwrap();
            std::thread::sleep(Duration::from_millis(150));
            session.recover_site(SiteId(3)).unwrap();
        }
        handle.join().unwrap()
    })
    .unwrap();

    // Some work must have gone through despite the failures.
    assert!(workload.committed() > 0);

    // No two copies of any item disagree about the value at a given version.
    let pm = ProgressRunner::new(&session);
    let divergence = pm.replica_divergence().unwrap();
    assert!(
        divergence.is_empty(),
        "divergence after crashes: {divergence:?}"
    );

    // The accounting still adds up.
    let stats = session.statistics().unwrap();
    assert_eq!(
        stats.committed + stats.aborted + stats.orphans,
        stats.submitted
    );
}

#[test]
fn recovered_site_catches_up_on_subsequent_writes() {
    let session = session(3, 4, 3, RcpKind::QuorumConsensus);
    session.crash_site(SiteId(2)).unwrap();
    // Write while site 2 is down: quorum {0,1} gets version 1.
    let w1 = session
        .submit(TxnSpec::new("w1", vec![Operation::write("x0", 111i64)]))
        .unwrap();
    assert!(w1.committed());
    session.recover_site(SiteId(2)).unwrap();
    // A new write reaches a quorum that must include at least one up-to-date
    // copy; the new version propagates (possibly to site 2 as well).
    let w2 = session
        .submit(TxnSpec::new("w2", vec![Operation::write("x0", 222i64)]))
        .unwrap();
    assert!(w2.committed());
    // Readers always see the latest committed value regardless of which
    // copies are stale.
    let read = session
        .submit(TxnSpec::new("r", vec![Operation::read("x0")]))
        .unwrap();
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(222)));
}
