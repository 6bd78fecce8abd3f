//! The interactive transaction API, exercised end to end:
//!
//! * a **differential** property: any `TxnSpec` replayed by hand through a
//!   `Client`/`Txn` conversation yields exactly the outcome, read values and
//!   final database state the one-shot adapter path (`Cluster::submit`)
//!   produces — looped across all five replication protocols and both
//!   quorum fan-out modes, since the adapter *is* a conversation and the
//!   two must never diverge;
//! * **drop safety**: an unfinished `Txn` aborts on drop (and a client that
//!   silently vanishes is idled out by the coordinator), releasing every
//!   CCP resource at every site;
//! * the **retry combinator** under faults: conversations homed at a
//!   crashed site orphan, retry elsewhere, and commit.

use rainbow_common::protocol::{ProtocolStack, RcpKind};
use rainbow_common::txn::{TxnError, TxnSpec};
use rainbow_common::{ItemId, Operation, Value};
use rainbow_core::{Cluster, ClusterConfig};
use rainbow_wlg::{WorkloadGenerator, WorkloadParams};
use std::collections::BTreeMap;
use std::time::Duration;

fn stack(rcp: RcpKind, parallel: bool) -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_rcp(rcp)
        .with_lock_wait_timeout(Duration::from_millis(200))
        .with_quorum_timeout(Duration::from_millis(600))
        .with_commit_timeout(Duration::from_millis(600))
        .with_parallel_quorums(parallel)
}

fn cluster(rcp: RcpKind, parallel: bool) -> Cluster {
    let config = ClusterConfig::quick(3, 8, 3)
        .unwrap()
        .with_stack(stack(rcp, parallel))
        .with_client_timeout(Duration::from_secs(5));
    Cluster::start(config).unwrap()
}

/// A deterministic mixed workload (reads, writes, increments) over the
/// quick-cluster item universe. The same seed produces the same specs for
/// both sides of the differential.
fn mixed_specs() -> Vec<TxnSpec> {
    let items: Vec<ItemId> = (0..8).map(|i| ItemId::new(format!("x{i}"))).collect();
    let params = WorkloadParams::default()
        .with_items(items)
        .with_transactions(10)
        .with_ops_range(1, 5)
        .with_read_fraction(0.5)
        .with_seed(91);
    let mut specs = WorkloadGenerator::new(params).generate();
    // Plus hand-picked shapes the generator rarely emits: empty, read-only,
    // write-then-read of the same item, duplicate reads.
    specs.push(TxnSpec::new("empty", vec![]));
    specs.push(TxnSpec::new(
        "write-then-read",
        vec![
            Operation::write("x0", 4242i64),
            Operation::read("x0"),
            Operation::read("x0"),
        ],
    ));
    specs.push(TxnSpec::new(
        "mixed-same-item",
        vec![
            Operation::read("x1"),
            Operation::increment("x1", 3),
            Operation::write("x2", 7i64),
        ],
    ));
    specs
}

/// Replays one spec by hand through an interactive conversation, mirroring
/// what the adapter does internally — but through the *public* handle API.
fn replay_by_hand(cluster: &Cluster, spec: &TxnSpec) -> (bool, BTreeMap<ItemId, Value>) {
    let mut client = cluster.client();
    let begin = match spec.home {
        Some(site) => client.begin_at(spec.label.clone(), site),
        None => client.begin(spec.label.clone()),
    };
    let mut txn = begin.expect("healthy cluster must accept begin");
    let mut observed = BTreeMap::new();
    for op in &spec.operations {
        let step: Result<(), TxnError> = match op {
            Operation::Read { item } => txn.read(item.clone()).map(|value| {
                observed.insert(item.clone(), value);
            }),
            Operation::Write { item, value } => txn.write(item.clone(), value.clone()),
            Operation::Increment { item, delta } => {
                txn.increment(item.clone(), *delta).map(|value| {
                    observed.insert(item.clone(), value);
                })
            }
        };
        if step.is_err() {
            return (false, observed);
        }
    }
    match txn.commit() {
        Ok(receipt) => (true, receipt.reads),
        Err(_) => (false, observed),
    }
}

fn audit_state(cluster: &Cluster) -> BTreeMap<ItemId, Value> {
    let audit = cluster.submit(TxnSpec::new(
        "audit",
        (0..8).map(|i| Operation::read(format!("x{i}"))).collect(),
    ));
    assert!(audit.committed(), "audit must commit: {:?}", audit.outcome);
    audit.reads
}

/// The acceptance-criteria differential: spec-adapter vs hand-driven
/// conversation, across the full RCP matrix and both fan-out modes.
#[test]
fn spec_replay_matches_adapter_across_rcps_and_fanout_modes() {
    for rcp in RcpKind::ALL {
        for parallel in [false, true] {
            let adapter_side = cluster(rcp, parallel);
            let handle_side = cluster(rcp, parallel);
            for spec in mixed_specs() {
                let adapter = adapter_side.submit(spec.clone());
                let (hand_committed, hand_reads) = replay_by_hand(&handle_side, &spec);
                assert_eq!(
                    adapter.committed(),
                    hand_committed,
                    "{rcp:?} parallel={parallel} '{}': outcome diverged (adapter: {:?})",
                    spec.label,
                    adapter.outcome
                );
                if adapter.committed() {
                    assert_eq!(
                        adapter.reads, hand_reads,
                        "{rcp:?} parallel={parallel} '{}': reads diverged",
                        spec.label
                    );
                }
            }
            assert_eq!(
                audit_state(&adapter_side),
                audit_state(&handle_side),
                "{rcp:?} parallel={parallel}: final states diverged"
            );
        }
    }
}

fn drain_cc_entries(cluster: &Cluster) -> bool {
    for _ in 0..60 {
        if cluster
            .active_cc_transactions()
            .values()
            .all(|count| *count == 0)
        {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

#[test]
fn dropped_txn_aborts_and_releases_locks() {
    let cluster = cluster(RcpKind::QuorumConsensus, true);
    let mut client = cluster.client();
    {
        let mut txn = client.begin("doomed").unwrap();
        // Shared locks on x0's quorum, exclusive locks on x1's.
        txn.read("x0").unwrap();
        txn.increment("x1", 5).unwrap();
        assert!(
            cluster
                .active_cc_transactions()
                .values()
                .any(|count| *count > 0),
            "the open conversation must hold CCP resources"
        );
        // Dropped here: neither commit nor abort was called.
    }
    assert!(
        drain_cc_entries(&cluster),
        "drop-abort must release every CCP entry: {:?} (lingering: {:?})",
        cluster.active_cc_transactions(),
        cluster.lingering_participants()
    );
    // The buffered increment must not have been installed.
    let read = cluster.submit(TxnSpec::new("check", vec![Operation::read("x1")]));
    assert_eq!(read.reads.get(&ItemId::new("x1")), Some(&Value::Int(100)));
    // The conversation was accounted as an abort, not leaked.
    let stats = cluster.stats();
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.submitted, 2);
}

#[test]
fn vanished_client_is_idled_out_by_the_coordinator() {
    // Tight protocol timeouts so the coordinator's idle horizon
    // ((lock + quorum + commit) * 3) stays test-sized.
    let config = ClusterConfig::quick(3, 4, 3)
        .unwrap()
        .with_stack(
            ProtocolStack::rainbow_default()
                .with_lock_wait_timeout(Duration::from_millis(50))
                .with_quorum_timeout(Duration::from_millis(100))
                .with_commit_timeout(Duration::from_millis(100)),
        )
        .with_client_timeout(Duration::from_secs(2));
    let cluster = Cluster::start(config).unwrap();
    let mut client = cluster.client();
    let mut txn = client.begin("vanishing").unwrap();
    txn.increment("x0", 1).unwrap();
    // The client vanishes without even a drop-abort (process death): the
    // coordinator must abort the conversation at its idle horizon.
    std::mem::forget(txn);
    assert!(
        drain_cc_entries(&cluster),
        "idle-horizon abort must release CCP entries: {:?}",
        cluster.active_cc_transactions()
    );
    let read = cluster.submit(TxnSpec::new("check", vec![Operation::read("x0")]));
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(100)));
}

#[test]
fn retry_combinator_reroutes_around_a_crashed_home_site() {
    let config = ClusterConfig::quick(3, 6, 3)
        .unwrap()
        .with_client_timeout(Duration::from_millis(700));
    let cluster = Cluster::start(config).unwrap();
    cluster.crash_site(rainbow_common::SiteId(2)).unwrap();

    let mut client = cluster.client();
    let mut landed_retries = 0;
    for i in 0..6 {
        // Round-robin home selection lands every third begin on the crashed
        // site; those conversations orphan and must be retried elsewhere.
        let (observed, receipt) = client
            .run(format!("survivor-{i}"), |txn| txn.read("x0"))
            .expect("retry must eventually commit every conversation");
        assert_eq!(observed.as_int(), Some(100));
        landed_retries += receipt.restarts;
    }
    assert!(
        landed_retries > 0,
        "with a crashed site in rotation, some conversation must have retried"
    );
}

#[test]
fn interactive_conversation_reads_its_own_commits_across_txns() {
    let cluster = cluster(RcpKind::Rowa, true);
    let mut client = cluster.client();

    // A conditional transfer driven by observed values.
    let mut txn = client.begin("transfer").unwrap();
    let balance = txn.read("x0").unwrap().as_int().unwrap();
    assert_eq!(balance, 100);
    txn.increment("x0", -40).unwrap();
    txn.increment("x1", 40).unwrap();
    let receipt = txn.commit().unwrap();
    assert!(receipt.reads.contains_key(&ItemId::new("x0")));

    // The next conversation observes the committed effects; the batched
    // multi-get returns values in request order and agrees with single
    // reads.
    let mut txn = client.begin("audit").unwrap();
    assert_eq!(txn.read("x0").unwrap(), Value::Int(60));
    assert_eq!(txn.read("x1").unwrap(), Value::Int(140));
    let batch = txn.read_many(["x1", "x0", "x2"]).unwrap();
    assert_eq!(
        batch,
        vec![
            (ItemId::new("x1"), Value::Int(140)),
            (ItemId::new("x0"), Value::Int(60)),
            (ItemId::new("x2"), Value::Int(100)),
        ]
    );
    txn.commit().unwrap();

    // Explicit abort leaves no trace.
    let mut txn = client.begin("undone").unwrap();
    txn.increment("x0", -1000).unwrap();
    txn.abort();
    let mut txn = client.begin("after-abort").unwrap();
    assert_eq!(txn.read("x0").unwrap(), Value::Int(60));
    txn.commit().unwrap();
}
