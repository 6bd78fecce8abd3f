//! The protocol matrix: every combination of RCP × CCP × ACP must process a
//! mixed workload correctly. This is the paper's central claim — protocols
//! are interchangeable "with minimum system-wide modifications" — exercised
//! end to end.

use rainbow_common::protocol::{AcpKind, CcpKind, DeadlockPolicy, ProtocolStack, RcpKind};
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, SiteId, Value};
use rainbow_control::{ProgressRunner, Session};
use rainbow_wlg::{ArrivalProcess, WorkloadProfile};
use std::time::Duration;

fn base_stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(150))
        .with_quorum_timeout(Duration::from_millis(500))
        .with_commit_timeout(Duration::from_millis(500))
}

fn run_stack(stack: ProtocolStack) -> (usize, usize) {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session.configure_protocols(stack).unwrap();
    session.configure_uniform_database(8, 100, 3).unwrap();
    session.set_seed(17);
    session.start().unwrap();

    let report = session
        .run_generated(
            WorkloadProfile::WriteHeavy,
            40,
            ArrivalProcess::Closed { mpl: 6 },
        )
        .unwrap();

    // Whatever committed must be durable and consistent: total of all items
    // equals what an audit transaction reads, and replicas agree.
    let audit = session
        .submit(TxnSpec::new(
            "audit",
            (0..8).map(|i| Operation::read(format!("x{i}"))).collect(),
        ))
        .unwrap();
    assert!(audit.committed(), "audit failed: {:?}", audit.outcome);
    let pm = ProgressRunner::new(&session);
    assert!(pm.replica_divergence().unwrap().is_empty());

    (report.committed(), report.aborted())
}

#[test]
fn every_rcp_ccp_acp_combination_processes_a_workload() {
    for rcp in RcpKind::ALL {
        for ccp in [
            CcpKind::TwoPhaseLocking,
            CcpKind::TimestampOrdering,
            CcpKind::MultiversionTimestampOrdering,
        ] {
            for acp in [AcpKind::TwoPhaseCommit, AcpKind::ThreePhaseCommit] {
                let stack = base_stack().with_rcp(rcp).with_ccp(ccp).with_acp(acp);
                let (committed, aborted) = run_stack(stack);
                assert!(
                    committed > 0,
                    "{rcp:?}+{ccp:?}+{acp:?}: nothing committed ({aborted} aborted)"
                );
            }
        }
    }
}

#[test]
fn every_deadlock_policy_makes_progress_under_contention() {
    for policy in [
        DeadlockPolicy::WaitForGraph,
        DeadlockPolicy::WaitDie,
        DeadlockPolicy::WoundWait,
        DeadlockPolicy::TimeoutOnly,
    ] {
        // Under full-suite load on a single-CPU machine, one heavily
        // contended run can starve by timeout alone; genuine starvation must
        // reproduce on a second, independent run to fail the test.
        let mut committed = 0;
        for _attempt in 0..3 {
            let mut session = Session::new();
            session.configure_sites(3).unwrap();
            // More forgiving timeouts than the rest of the matrix: the
            // property under test is *progress*, and on a single-CPU CI
            // machine short timeouts can wall-clock-starve every
            // transaction at MPL 8 regardless of deadlock policy.
            session
                .configure_protocols(
                    base_stack()
                        .with_deadlock_policy(policy)
                        .with_lock_wait_timeout(Duration::from_millis(400))
                        .with_quorum_timeout(Duration::from_millis(1500))
                        .with_commit_timeout(Duration::from_millis(1500)),
                )
                .unwrap();
            session.configure_uniform_database(4, 100, 3).unwrap();
            session.start().unwrap();
            let report = session
                .run_generated(
                    WorkloadProfile::HotSpotContention,
                    40,
                    ArrivalProcess::Closed { mpl: 8 },
                )
                .unwrap();
            // Every transaction reached a decision (no infinite blocking).
            assert_eq!(report.results.len(), 40, "policy {policy}");
            committed = report.committed();
            if committed > 0 {
                break;
            }
        }
        assert!(committed > 0, "deadlock policy {policy} starved completely");
    }
}

#[test]
fn rowa_reads_are_cheaper_than_qc_reads_in_messages() {
    let run = |rcp: RcpKind| -> f64 {
        let mut session = Session::new();
        session.configure_sites(5).unwrap();
        session
            .configure_protocols(base_stack().with_rcp(rcp))
            .unwrap();
        session.configure_uniform_database(10, 100, 5).unwrap();
        session.set_seed(3);
        session.start().unwrap();
        let report = session
            .run_generated(
                WorkloadProfile::ReadOnlyScan,
                30,
                ArrivalProcess::Closed { mpl: 4 },
            )
            .unwrap();
        assert!(report.committed() > 0);
        report.messages_per_txn()
    };
    let rowa = run(RcpKind::Rowa);
    let qc = run(RcpKind::QuorumConsensus);
    assert!(
        rowa < qc,
        "ROWA read-only workloads must use fewer messages per txn (ROWA {rowa:.1} vs QC {qc:.1})"
    );
}

#[test]
fn mvto_lets_old_readers_commit_where_tso_aborts_them() {
    // Direct protocol-level comparison at one site, embedded in the full
    // system: under TSO a read arriving "late" (behind a committed write
    // with a larger timestamp) aborts at least sometimes under heavy
    // write contention, while MVTO read-only transactions never abort.
    let run = |ccp: CcpKind| -> (usize, usize) {
        let mut session = Session::new();
        session.configure_sites(2).unwrap();
        session
            .configure_protocols(base_stack().with_ccp(ccp))
            .unwrap();
        session.configure_uniform_database(2, 100, 2).unwrap();
        session.set_seed(5);
        session.start().unwrap();
        // Writers and readers race on the same two items.
        let mut committed_reads = 0;
        let mut aborted_reads = 0;
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..30 {
                    let _ = session.submit(TxnSpec::new(
                        format!("w{i}"),
                        vec![Operation::write("x0", i as i64)],
                    ));
                }
            });
            for i in 0..30 {
                let r = session
                    .submit(TxnSpec::new(
                        format!("r{i}"),
                        vec![Operation::read("x0"), Operation::read("x1")],
                    ))
                    .unwrap();
                if r.committed() {
                    committed_reads += 1;
                } else {
                    aborted_reads += 1;
                }
            }
            writer.join().unwrap();
        });
        (committed_reads, aborted_reads)
    };
    let (mvto_committed, mvto_aborted) = run(CcpKind::MultiversionTimestampOrdering);
    assert_eq!(
        mvto_aborted, 0,
        "MVTO read-only transactions must never abort ({mvto_committed} committed)"
    );
    // TSO is allowed to abort readers; we only check it still makes progress.
    let (tso_committed, _tso_aborted) = run(CcpKind::TimestampOrdering);
    assert!(tso_committed > 0);
}

#[test]
fn blind_writes_and_read_modify_writes_coexist() {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session.configure_protocols(base_stack()).unwrap();
    session.configure_uniform_database(3, 0, 3).unwrap();
    session.start().unwrap();

    let results = session
        .submit_manual(vec![
            TxnSpec::new("blind", vec![Operation::write("x0", 10i64)]),
            TxnSpec::new("rmw", vec![Operation::increment("x0", 5)]),
            TxnSpec::new(
                "mixed",
                vec![
                    Operation::read("x0"),
                    Operation::write("x1", 1i64),
                    Operation::increment("x2", -3),
                ],
            ),
        ])
        .unwrap();
    assert!(results.iter().all(|r| r.committed()));
    let check = session
        .submit(TxnSpec::new(
            "check",
            vec![
                Operation::read("x0"),
                Operation::read("x1"),
                Operation::read("x2"),
            ],
        ))
        .unwrap();
    assert_eq!(check.reads.get(&ItemId::new("x0")), Some(&Value::Int(15)));
    assert_eq!(check.reads.get(&ItemId::new("x1")), Some(&Value::Int(1)));
    assert_eq!(check.reads.get(&ItemId::new("x2")), Some(&Value::Int(-3)));
}

// ---------------------------------------------------------------------------
// Fault-injected quorums: every RCP must be *safe* under failures — a read
// either returns the latest committed value or the transaction aborts;
// a stale read is never acceptable, whatever the protocol's availability.
// ---------------------------------------------------------------------------

/// Drives alternating writes and reads of `x0` from home site 0 and checks
/// the safety oracle: every committed read equals the last committed write.
/// Returns the number of committed writes so callers can also assert the
/// protocol's *availability* under the injected fault.
fn write_read_oracle(session: &Session, rcp: RcpKind, mut expected: i64, rounds: i64) -> i64 {
    let mut committed_writes = 0;
    for round in 0..rounds {
        let value = 1_000 + round;
        let write = session
            .submit(
                TxnSpec::new(format!("w{round}"), vec![Operation::write("x0", value)])
                    .at_site(SiteId(0)),
            )
            .unwrap();
        assert!(
            !write.outcome.is_orphaned(),
            "{rcp}: write through a live home site must reach a decision"
        );
        if write.committed() {
            expected = value;
            committed_writes += 1;
        }
        let read = session
            .submit(
                TxnSpec::new(format!("r{round}"), vec![Operation::read("x0")]).at_site(SiteId(0)),
            )
            .unwrap();
        if read.committed() {
            assert_eq!(
                read.reads.get(&ItemId::new("x0")),
                Some(&Value::Int(expected)),
                "{rcp}: stale read after round {round} (committed write was {expected})"
            );
        }
    }
    committed_writes
}

fn fault_session(rcp: RcpKind) -> Session {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session
        .configure_protocols(base_stack().with_rcp(rcp))
        .unwrap();
    session.configure_uniform_database(4, 100, 3).unwrap();
    session.set_client_timeout(Duration::from_secs(3));
    session.start().unwrap();
    session
}

#[test]
fn every_rcp_never_serves_stale_reads_with_one_site_down() {
    for rcp in RcpKind::ALL {
        let session = fault_session(rcp);
        // Site 2 is a backup copy holder everywhere (and a tree leaf / not
        // the primary), so read availability survives for every protocol.
        session.crash_site(SiteId(2)).unwrap();
        let committed_writes = write_read_oracle(&session, rcp, 100, 3);

        // Availability is protocol-specific, and that asymmetry is the
        // experiment: write-all (ROWA) and root+children-majority (TQ, with
        // 3 copies the whole tree) block, the fault-adaptive protocols and
        // QC keep committing.
        match rcp {
            RcpKind::Rowa | RcpKind::TreeQuorum => assert_eq!(
                committed_writes, 0,
                "{rcp} writes must block with a copy holder down"
            ),
            RcpKind::QuorumConsensus | RcpKind::AvailableCopies | RcpKind::PrimaryCopy => {
                assert_eq!(
                    committed_writes, 3,
                    "{rcp} writes must survive a single backup crash"
                )
            }
        }

        // Reads stay available under every protocol while the fault holds.
        let read = session
            .submit(TxnSpec::new("avail", vec![Operation::read("x0")]).at_site(SiteId(0)))
            .unwrap();
        assert!(
            read.committed(),
            "{rcp}: read with one site down: {:?}",
            read.outcome
        );
    }
}

#[test]
fn every_rcp_never_serves_stale_reads_in_the_majority_partition() {
    for rcp in RcpKind::ALL {
        let session = fault_session(rcp);
        // Everything committed before the fault is fully replicated.
        let seeded = session
            .submit(TxnSpec::new("seed", vec![Operation::write("x0", 5i64)]).at_site(SiteId(0)))
            .unwrap();
        assert!(seeded.committed(), "{rcp} seed write: {:?}", seeded.outcome);

        // Isolate site 2: it is alive but unreachable — crucially *not* in
        // the fault controller's crash view, so the adaptive protocols must
        // not shrink their write sets around it.
        session.partition(&[vec![SiteId(2)]]).unwrap();
        let committed_writes = write_read_oracle(&session, rcp, 5, 3);
        match rcp {
            // Only quorum consensus can tell a safe majority apart from an
            // unsafe one without suspecting the partitioned site.
            RcpKind::QuorumConsensus => assert_eq!(
                committed_writes, 3,
                "QC writes must survive a minority partition"
            ),
            RcpKind::Rowa
            | RcpKind::AvailableCopies
            | RcpKind::TreeQuorum
            | RcpKind::PrimaryCopy => assert_eq!(
                committed_writes, 0,
                "{rcp} writes must abort rather than split-brain: the \
                 partitioned holder is alive and required"
            ),
        }

        // Heal: every protocol resumes committing and the healed cluster
        // agrees on the last committed value.
        session.heal_partition().unwrap();
        let write = session
            .submit(TxnSpec::new("healed", vec![Operation::write("x0", 9i64)]).at_site(SiteId(0)))
            .unwrap();
        assert!(write.committed(), "{rcp} after heal: {:?}", write.outcome);
        let read = session
            .submit(TxnSpec::new("verify", vec![Operation::read("x0")]).at_site(SiteId(1)))
            .unwrap();
        assert!(
            read.committed(),
            "{rcp} read after heal: {:?}",
            read.outcome
        );
        assert_eq!(
            read.reads.get(&ItemId::new("x0")),
            Some(&Value::Int(9)),
            "{rcp}: healed cluster must agree on the committed value"
        );
        let pm = ProgressRunner::new(&session);
        assert!(
            pm.replica_divergence().unwrap().is_empty(),
            "{rcp}: no two copies may disagree about the same version"
        );
    }
}

#[test]
fn primary_copy_fails_over_to_a_backup_and_back_reads_stay_fresh() {
    let session = fault_session(RcpKind::PrimaryCopy);
    // Commit through the primary (site 0, the lowest-numbered holder):
    // the synchronous backups receive the write too.
    let write = session
        .submit(TxnSpec::new("w", vec![Operation::write("x0", 7i64)]).at_site(SiteId(1)))
        .unwrap();
    assert!(write.committed(), "{:?}", write.outcome);

    // Kill the primary: the lease fails over to the next live holder and
    // reads keep returning the committed value.
    session.crash_site(SiteId(0)).unwrap();
    let read = session
        .submit(TxnSpec::new("r", vec![Operation::read("x0")]).at_site(SiteId(1)))
        .unwrap();
    assert!(read.committed(), "failover read: {:?}", read.outcome);
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(7)));

    // Writes during the failover commit on the surviving copies...
    let write = session
        .submit(TxnSpec::new("w2", vec![Operation::write("x0", 8i64)]).at_site(SiteId(1)))
        .unwrap();
    assert!(write.committed(), "failover write: {:?}", write.outcome);

    // ...and the failed-over reads observe them immediately.
    let read = session
        .submit(TxnSpec::new("r2", vec![Operation::read("x0")]).at_site(SiteId(2)))
        .unwrap();
    assert!(read.committed(), "{:?}", read.outcome);
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(8)));
}
