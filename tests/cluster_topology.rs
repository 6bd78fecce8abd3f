//! Topology tests (experiment FIG1/FIG2): the three-tier structure and the
//! physical mapping of sites and the name server onto simulated hosts.

use rainbow_common::config::{DatabaseSchema, DistributionSchema, ItemPlacement, SiteSpec};
use rainbow_common::protocol::ProtocolStack;
use rainbow_common::txn::TxnSpec;
use rainbow_common::{HostId, ItemId, Operation, SiteId, Value};
use rainbow_core::{Cluster, ClusterConfig};
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig, NodeId};
use std::time::Duration;

fn stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(200))
        .with_quorum_timeout(Duration::from_millis(600))
        .with_commit_timeout(Duration::from_millis(600))
}

#[test]
fn figure2_topology_multiple_sites_per_host() {
    // Figure 2 of the paper shows several Rainbow sites and the name server
    // sharing hosts in the Rainbow host domain. Two hosts, four sites.
    let mut distribution = DistributionSchema::new();
    distribution.add(SiteSpec::new(SiteId(0), HostId(0)));
    distribution.add(SiteSpec::new(SiteId(1), HostId(0)));
    distribution.add(SiteSpec::new(SiteId(2), HostId(1)));
    distribution.add(SiteSpec::new(SiteId(3), HostId(1)));
    let database = DatabaseSchema::uniform(8, 10, &distribution.site_ids(), 3).unwrap();

    let config = ClusterConfig {
        distribution: distribution.clone(),
        database,
        stack: stack(),
        network: NetworkConfig::perfect(),
        client_timeout: Duration::from_secs(5),
        record_history: false,
        tracing: rainbow_trace::TraceConfig::disabled(),
        storage: rainbow_core::StorageConfig::from_env(),
    };
    let cluster = Cluster::start(config).unwrap();
    assert_eq!(cluster.site_ids().len(), 4);
    assert_eq!(distribution.host_ids().len(), 2);

    let result = cluster.submit(TxnSpec::new(
        "topology-check",
        vec![Operation::write("x0", 7i64), Operation::read("x1")],
    ));
    assert!(result.committed(), "outcome: {:?}", result.outcome);
}

#[test]
fn name_server_serves_the_schema_to_every_site() {
    // Every site fetches its schema through the name server at startup: the
    // NS_GET_SCHEMA / NS_SCHEMA traffic must appear on the network counters,
    // once per site at minimum.
    let config = ClusterConfig::quick(4, 8, 3).unwrap();
    let cluster = Cluster::start(config).unwrap();
    let counters = cluster.network_counters();
    assert!(counters.kind("NS_GET_SCHEMA") >= 4);
    assert!(counters.kind("NS_SCHEMA") >= 4);
    // The name server is its own node on the network, distinct from sites.
    assert!(counters.link(NodeId::site(0), NodeId::NameServer) >= 1);
}

#[test]
fn per_link_latency_overrides_shape_response_times() {
    // Site 2 is "far away": every message to it takes 30 ms. Transactions
    // whose quorums involve it are visibly slower than purely local ones.
    let far = NodeId::site(2);
    let mut network = NetworkConfig::perfect().with_seed(3);
    for near in [
        NodeId::site(0),
        NodeId::site(1),
        NodeId::NameServer,
        NodeId::Client(0),
    ] {
        network = network
            .override_link(
                near,
                far,
                LinkConfig::with_latency(LatencyModel::constant(Duration::from_millis(30))),
            )
            .override_link(
                far,
                near,
                LinkConfig::with_latency(LatencyModel::constant(Duration::from_millis(30))),
            );
    }
    let distribution = DistributionSchema::one_site_per_host(3);
    let mut database = DatabaseSchema::new();
    // "local" lives on sites 0 and 1 only; "remote" lives on sites 0 and 2,
    // so its write quorum (both copies) must cross the slow link.
    database.declare(
        "local",
        0i64,
        ItemPlacement::majority(vec![SiteId(0), SiteId(1)]),
    );
    database.declare(
        "remote",
        0i64,
        ItemPlacement::majority(vec![SiteId(0), SiteId(2)]),
    );
    let config = ClusterConfig {
        distribution,
        database,
        stack: stack(),
        network,
        client_timeout: Duration::from_secs(5),
        record_history: false,
        tracing: rainbow_trace::TraceConfig::disabled(),
        storage: rainbow_core::StorageConfig::from_env(),
    };
    let cluster = Cluster::start(config).unwrap();

    let local = cluster
        .submit(TxnSpec::new("local", vec![Operation::write("local", 1i64)]).at_site(SiteId(0)));
    let remote = cluster
        .submit(TxnSpec::new("remote", vec![Operation::write("remote", 1i64)]).at_site(SiteId(0)));
    assert!(local.committed(), "local outcome: {:?}", local.outcome);
    assert!(remote.committed(), "remote outcome: {:?}", remote.outcome);
    assert!(
        remote.response_time > local.response_time + Duration::from_millis(20),
        "remote ({:?}) should be much slower than local ({:?})",
        remote.response_time,
        local.response_time
    );
}

#[test]
fn partial_replication_places_copies_only_at_declared_holders() {
    let distribution = DistributionSchema::one_site_per_host(3);
    let mut database = DatabaseSchema::new();
    database.declare("a", 1i64, ItemPlacement::majority(vec![SiteId(0)]));
    database.declare(
        "b",
        2i64,
        ItemPlacement::majority(vec![SiteId(1), SiteId(2)]),
    );
    let config = ClusterConfig {
        distribution,
        database,
        stack: stack(),
        network: NetworkConfig::perfect(),
        client_timeout: Duration::from_secs(5),
        record_history: false,
        tracing: rainbow_trace::TraceConfig::disabled(),
        storage: rainbow_core::StorageConfig::from_env(),
    };
    let cluster = Cluster::start(config).unwrap();

    let s0 = cluster.database_snapshot(SiteId(0)).unwrap();
    let s1 = cluster.database_snapshot(SiteId(1)).unwrap();
    let s2 = cluster.database_snapshot(SiteId(2)).unwrap();
    assert_eq!(s0.len(), 1);
    assert_eq!(s1.len(), 1);
    assert_eq!(s2.len(), 1);
    assert_eq!(s0[0].0, ItemId::new("a"));
    assert_eq!(s1[0].0, ItemId::new("b"));
    assert_eq!(s2[0].0, ItemId::new("b"));

    // Transactions spanning both items still work (distributed execution).
    let result = cluster.submit(TxnSpec::new(
        "span",
        vec![Operation::read("a"), Operation::increment("b", 5)],
    ));
    assert!(result.committed(), "outcome: {:?}", result.outcome);
    assert_eq!(result.reads.get(&ItemId::new("a")), Some(&Value::Int(1)));
}

#[test]
fn message_traffic_is_attributed_per_kind_and_per_link() {
    let config = ClusterConfig::quick(3, 6, 3).unwrap();
    let cluster = Cluster::start(config).unwrap();
    let before = cluster.network_counters().snapshot();
    let result = cluster.submit(TxnSpec::new(
        "traffic",
        vec![Operation::write("x0", 1i64), Operation::write("x1", 2i64)],
    ));
    assert!(result.committed());
    let delta = cluster.network_counters().delta_since(&before);
    // A distributed write must have produced pre-writes, prepares, votes,
    // decisions and acks on the wire.
    assert!(delta.kind("RCP_PREWRITE") > 0, "delta: {delta:?}");
    assert!(delta.kind("ACP_PREPARE") > 0);
    assert!(delta.kind("ACP_VOTE") > 0);
    assert!(delta.kind("ACP_DECISION") > 0);
    assert!(delta.kind("ACP_ACK") > 0);
    assert!(result.messages > 0);
}
