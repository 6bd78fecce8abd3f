//! Rainbow's repository benchmark.
//!
//! Starts an in-process `Cluster` with the default protocol stack
//! (`ProtocolStack::rainbow_default()`, QC+2PL+2PC) on 3 sites holding 1000
//! integer items with 3 copies each under majority quorums, on a perfect
//! network, and drives it through the public `Client`/`Txn` API from closed
//! loop generator threads, one `Client` each. Every call into the client API
//! is timed from outside; the layers are read through their public counters
//! (`Cluster::network_counters`, `Cluster::stats`) and `/proc`. After the
//! timed window a quorum read audits every item against what the benchmark
//! saw commit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serial-rmw|read-mostly|durable-rmw [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the last line of standard output holds the end-to-end
//! metrics, medians over rounds on fresh clusters that share `--seconds`;
//! with `--trace 1` it holds the per-layer metrics, from an untraced window
//! and a second window on a cluster traced with
//! `TraceConfig::histograms_only()`, each half of `--seconds` long.
//! `perfbench/README.md` says why each workload and metric was chosen.

mod drive;
mod procfs;
mod stats;
mod workload;

use drive::{drive, Call, ClientState, Window};
use rainbow_common::config::{DatabaseSchema, DistributionSchema};
use rainbow_common::protocol::ProtocolStack;
use rainbow_common::txn::AbortLayer;
use rainbow_common::ItemId;
use rainbow_core::{Cluster, ClusterConfig, StorageConfig};
use rainbow_net::NetworkConfig;
use rainbow_trace::{LogHistogram, Phase, TraceConfig, Tracer};
use stats::{chunked_percentile, median, percentile, Outcomes};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Effects, Engine, Workload, INITIAL, ITEMS};

const SITES: usize = 3;
const REPLICATION_DEGREE: usize = 3;
/// An end-to-end run measures this many rounds, each on a fresh cluster
/// for an equal share of `--seconds`, and reports the median round: one
/// round that met a slow spell of the host, or a cluster that settled into
/// a slower state, does not carry the result.
const ROUNDS: usize = 3;
/// Cluster start-ups per round; `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 3;
/// Untimed load before each window: lazily built client endpoints, caches
/// and thread pools settle here.
const WARMUP: Duration = Duration::from_secs(1);
/// Where disk-engine data lives, under the directory the benchmark runs in.
const DATA_ROOT: &str = ".perfbench-data";
/// Committed transactions per chunk for `latency_p99_us`: each chunk's
/// p99 has 10 samples beyond it.
const P99_CHUNK: usize = 1000;
/// Message kinds whose per-transaction counts are reported.
const MESSAGE_KINDS: [&str; 9] = [
    "TXN_OP",
    "RCP_READ",
    "RCP_PREWRITE",
    "RCP_REPLY",
    "ACP_PREPARE",
    "ACP_VOTE",
    "ACP_DECISION",
    "ACP_ACK",
    "BATCH",
];

/// The command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::SerialRmw,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (3.0..=600.0).contains(s))
                    .ok_or_else(|| bad("expected a number of seconds in [3, 600]"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// The benchmark measures the default configuration, so it refuses to run
/// while any variable is set that the library would read to change it.
fn check_environment() -> Result<(), String> {
    let knobs: Vec<String> = std::env::vars()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("RAINBOW_"))
        .collect();
    if knobs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: the benchmark measures the default configuration",
            knobs.join(", ")
        ))
    }
}

/// The cluster every workload runs: the default stack, with the engine
/// given explicitly so no environment variable can choose it.
fn cluster_config(workload: Workload, data_dir: &Path, tracing: bool) -> ClusterConfig {
    let distribution = DistributionSchema::one_site_per_host(SITES);
    let database =
        DatabaseSchema::uniform(ITEMS, INITIAL, &distribution.site_ids(), REPLICATION_DEGREE)
            .expect("uniform schema over configured sites");
    ClusterConfig {
        distribution,
        database,
        stack: ProtocolStack::rainbow_default(),
        network: NetworkConfig::perfect(),
        client_timeout: Duration::from_secs(10),
        record_history: false,
        tracing: if tracing {
            TraceConfig::histograms_only()
        } else {
            TraceConfig::disabled()
        },
        storage: match workload.engine() {
            Engine::Memory => StorageConfig::memory(),
            Engine::Disk => StorageConfig::disk(data_dir),
        },
    }
}

/// Starts a cluster and commits one read-only transaction on it; returns
/// the cluster and the time from `Cluster::start` to that commit.
fn start(config: ClusterConfig, items: &[ItemId]) -> Result<(Cluster, f64), String> {
    let begun = Instant::now();
    let cluster = Cluster::start(config).map_err(|e| format!("cluster start: {e}"))?;
    {
        let mut client = cluster.client();
        let mut txn = client
            .begin("perfbench-first")
            .map_err(|e| format!("first begin: {e}"))?;
        txn.read(items[0].clone())
            .map_err(|e| format!("first read: {e}"))?;
        txn.commit().map_err(|e| format!("first commit: {e}"))?;
    }
    Ok((cluster, begun.elapsed().as_secs_f64()))
}

/// Reads every item with one quorum read and compares it with `expected`
/// (`None` = unpredictable); then waits until no site holds CCP resources.
/// Returns the number of items checked.
fn audit(cluster: &Cluster, items: &[ItemId], expected: &[Option<i64>]) -> Result<usize, String> {
    let mut client = cluster.client();
    let mut txn = client
        .begin("perfbench-audit")
        .map_err(|e| format!("audit begin: {e}"))?;
    let values = txn
        .read_many(items.iter().cloned())
        .map_err(|e| format!("audit read: {e}"))?;
    txn.commit().map_err(|e| format!("audit commit: {e}"))?;
    let mut checked = 0;
    for ((item, value), want) in values.iter().zip(expected) {
        if let Some(want) = want {
            if value.as_int() != Some(*want) {
                return Err(format!("audit: {item:?} holds {value:?}, expected {want}"));
            }
            checked += 1;
        }
    }
    if values.len() != items.len() {
        return Err(format!(
            "audit: read {} of {} items",
            values.len(),
            items.len()
        ));
    }
    // A participant whose coordinator stopped talking to it (say, a copy
    // whose quorum reply came too late to be used) keeps its locks until
    // the site janitor aborts it, one janitor horizon after its last
    // activity; the janitor runs every 200 ms.
    let deadline =
        Instant::now() + cluster.config().stack.janitor_horizon() + Duration::from_secs(1);
    loop {
        let active = cluster.active_cc_transactions();
        if active.values().all(|n| *n == 0) {
            return Ok(checked);
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "audit: transactions still hold CCP resources: {active:?}; participants: {:?}",
                cluster.lingering_participants()
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Phase histograms of a traced cluster, and how many samples each phase
/// got inside the timed window.
struct Traced {
    histograms: BTreeMap<&'static str, LogHistogram>,
    window_counts: BTreeMap<&'static str, u64>,
}

fn phase_counts(tracer: &Tracer) -> BTreeMap<&'static str, u64> {
    Phase::ALL
        .iter()
        .map(|phase| (phase.name(), tracer.phase_histogram(*phase).count()))
        .collect()
}

/// One measured cluster lifetime: set-ups, warm-up, the timed window and
/// the audits.
struct Measured {
    window: Window,
    warmup: Outcomes,
    setup_s: Vec<f64>,
    /// Disk engine only: reopen → first commit.
    recovery_s: Option<f64>,
    traced: Option<Traced>,
    /// Items whose value the audits checked, or why an audit failed.
    audited: Result<usize, String>,
    /// Participants the site janitors had to abort for want of a decision.
    janitor_cleanups: u64,
}

fn measure(
    args: &Args,
    items: &[ItemId],
    round: usize,
    seconds: f64,
    setups: usize,
    tracing: bool,
    data_dir: &Path,
) -> Result<Measured, String> {
    let config_for = |dir: &Path| cluster_config(args.workload, dir, tracing);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let dir = data_dir.join(format!("setup-{i}"));
        let (mut cluster, secs) = start(config_for(&dir), items)?;
        setup_s.push(secs);
        if i + 1 < setups {
            cluster.shutdown();
            remove_dir(&dir)?;
        } else {
            kept = Some((cluster, dir));
        }
    }
    let (mut cluster, dir) = kept.expect("at least one set-up");

    let seed = args.seed.wrapping_add((round as u64) << 32);
    let mut states = ClientState::for_workload(args.workload, seed);
    let warmup = drive(&cluster, items, &mut states, WARMUP).log.outcomes;
    let tracer = cluster.tracer();
    let counts_before = tracer.as_deref().map(phase_counts);
    let window = drive(
        &cluster,
        items,
        &mut states,
        Duration::from_secs_f64(seconds),
    );
    let traced = tracer
        .as_deref()
        .zip(counts_before)
        .map(|(tracer, before)| Traced {
            histograms: Phase::ALL
                .iter()
                .map(|phase| (phase.name(), tracer.phase_histogram(*phase)))
                .collect(),
            window_counts: phase_counts(tracer)
                .into_iter()
                .map(|(name, after)| (name, after - before[name]))
                .collect(),
        });

    let effects: Vec<Effects> = states.into_iter().map(|s| s.effects).collect();
    let expected = Effects::expected(&effects);
    let mut audited = audit(&cluster, items, &expected);
    let mut janitor_cleanups = cluster.janitor_cleanups();
    let mut recovery_s = None;
    if audited.is_ok() && args.workload.engine() == Engine::Disk && !tracing {
        cluster.shutdown();
        drop(cluster);
        let (reopened, secs) = start(config_for(&dir), items)?;
        recovery_s = Some(secs);
        audited = audit(&reopened, items, &expected).map_err(|e| format!("after reopen: {e}"));
        janitor_cleanups += reopened.janitor_cleanups();
        cluster = reopened;
    }
    cluster.shutdown();
    drop(cluster);
    remove_dir(&dir)?;
    Ok(Measured {
        window,
        warmup,
        setup_s,
        recovery_s,
        traced,
        audited,
        janitor_cleanups,
    })
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    let name = name.into();
    assert!(value.is_finite(), "{name} is not a number: {value}");
    Metric { name, unit, value }
}

/// A percentile of nanosecond samples in µs, or 0 (with a note) when the
/// sample does not support it.
fn percentile_us(name: &str, sorted_ns: &[u64], p: f64, notes: &mut Vec<String>) -> f64 {
    match percentile(sorted_ns, p) {
        Some(ns) => ns as f64 / 1000.0,
        None => {
            notes.push(format!(
                "{name}: {} samples do not support p{p}; reported as 0",
                sorted_ns.len()
            ));
            0.0
        }
    }
}

/// The median over rounds of one figure of each round's window.
fn median_over(
    rounds: &[Measured],
    figure: impl Fn(&Window) -> Result<f64, String>,
) -> Result<f64, String> {
    let values = rounds
        .iter()
        .map(|m| figure(&m.window))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&values))
}

/// The end-to-end metrics a change is gated on.
fn end_to_end(rounds: &[Measured]) -> Result<Vec<Metric>, String> {
    let mut outcomes = Outcomes::default();
    for m in rounds {
        outcomes.merge(&m.window.log.outcomes);
    }
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|m| m.setup_s.iter().copied())
        .collect();
    Ok(vec![
        metric(
            "txn_per_s",
            "txn/s",
            median_over(rounds, |w| Ok(w.txn_per_s()))?,
        ),
        metric(
            "latency_p50_us",
            "us",
            median_over(rounds, |w| {
                w.latency_p50_us()
                    .ok_or_else(|| "no slice committed 20 transactions".to_string())
            })?,
        ),
        metric("commit_ratio", "ratio", 1.0 - outcomes.failed_ratio()),
        metric(
            "cpu_us_per_txn",
            "us/txn",
            median_over(rounds, |w| {
                w.cpu_us_per_txn()
                    .ok_or_else(|| "no slice committed anything".to_string())
            })?,
        ),
        metric("setup_s", "s", median(&setups)),
    ])
}

/// End-to-end metrics that move too much with the host to gate a change
/// (see `perfbench/README.md`): reported beside the gated ones, and among
/// the per-layer metrics.
fn ungated(rounds: &[Measured], notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    for m in rounds {
        let n = m.window.txn_ns_by_end.len();
        notes.push(format!(
            "latency samples: {n} committed transactions, {} chunks of {P99_CHUNK}",
            n / P99_CHUNK
        ));
    }
    let p99_us = median_over(rounds, |w| {
        chunked_percentile(&w.txn_ns_by_end, P99_CHUNK, 99.0)
            .map(|ns| ns / 1000.0)
            .ok_or_else(|| {
                format!(
                    "{} commits are too few for latency_p99_us",
                    w.txn_ns_by_end.len()
                )
            })
    })?;
    Ok(vec![
        metric("latency_p99_us", "us", p99_us),
        metric("peak_rss_mb", "MiB", procfs::read_peak_rss_mib()),
    ])
}

fn aborts_per_ktxn(w: &Window, layer: AbortLayer) -> f64 {
    let aborts = w.stats_after.aborts.layer(layer) - w.stats_before.aborts.layer(layer);
    1000.0 * aborts as f64 / w.log.outcomes.attempted.max(1) as f64
}

fn per_layer(untraced: &Measured, traced: &Measured, notes: &mut Vec<String>) -> Vec<Metric> {
    let w = &untraced.window;
    let mut out = Vec::new();
    let mut add = |name: &str, unit, value| out.push(metric(name, unit, value));
    for (index, call) in Call::ALL.iter().enumerate() {
        let samples = &w.log.calls_ns[index];
        for p in [50.0, 99.0] {
            let name = format!("client.{}_us.p{p}", call.name());
            add(&name, "us", percentile_us(&name, samples, p, notes));
        }
    }
    add("net.msgs_per_txn", "msg/txn", w.per_txn(w.messages.sent));
    add("net.bytes_per_txn", "B/txn", w.per_txn(w.messages.bytes));
    add(
        "net.round_trips_per_txn",
        "1/txn",
        w.per_txn(w.messages.round_trips),
    );
    for kind in MESSAGE_KINDS {
        add(
            &format!("net.kind.{kind}_per_txn"),
            "msg/txn",
            w.per_txn(w.messages.kind(kind)),
        );
    }

    let t = traced.traced.as_ref().expect("traced run has histograms");
    let tw = &traced.window;
    let quantile_us = |phase: &str, q: f64| t.histograms[phase].value_at_quantile(q) as f64;
    let count_per_txn = |phase: &str| tw.per_txn(t.window_counts[phase]);
    add(
        "trace.quorum-read_us.p50",
        "us",
        quantile_us("quorum-read", 0.5),
    );
    add(
        "trace.quorum-read_us.p99",
        "us",
        quantile_us("quorum-read", 0.99),
    );
    add(
        "trace.quorum-read.count_per_txn",
        "1/txn",
        count_per_txn("quorum-read"),
    );
    add(
        "trace.lock-wait_us.p50",
        "us",
        quantile_us("lock-wait", 0.5),
    );
    add(
        "trace.lock-wait_us.p99",
        "us",
        quantile_us("lock-wait", 0.99),
    );
    add(
        "ccp.aborts_per_ktxn",
        "1/ktxn",
        aborts_per_ktxn(w, AbortLayer::Ccp),
    );
    add("trace.prepare_us.p50", "us", quantile_us("prepare", 0.5));
    add(
        "trace.commit-apply_us.p50",
        "us",
        quantile_us("commit-apply", 0.5),
    );
    add(
        "acp.aborts_per_ktxn",
        "1/ktxn",
        aborts_per_ktxn(w, AbortLayer::Acp),
    );

    let (forces, fsyncs) = (t.window_counts["wal-force"], t.window_counts["fsync-batch"]);
    let forces_per_fsync = if fsyncs == 0 {
        0.0
    } else {
        forces as f64 / fsyncs as f64
    };
    add(
        "trace.wal-force.count_per_txn",
        "1/txn",
        count_per_txn("wal-force"),
    );
    add(
        "trace.fsync-batch.count_per_txn",
        "1/txn",
        count_per_txn("fsync-batch"),
    );
    add("storage.forces_per_fsync", "ratio", forces_per_fsync);
    add(
        "trace.fsync-batch_us.p50",
        "us",
        quantile_us("fsync-batch", 0.5),
    );
    add(
        "storage.write_bytes_per_txn",
        "B/txn",
        w.per_txn(w.io.write_bytes),
    );
    add(
        "storage.write_calls_per_txn",
        "1/txn",
        w.per_txn(w.io.write_calls),
    );
    add(
        "storage.recovery_s",
        "s",
        untraced.recovery_s.unwrap_or(0.0),
    );
    add(
        "trace.queue-delay_us.p50",
        "us",
        quantile_us("queue-delay", 0.5),
    );
    add(
        "trace.queue-delay_us.p99",
        "us",
        quantile_us("queue-delay", 0.99),
    );
    add(
        "site.janitor_cleanups",
        "count",
        untraced.janitor_cleanups as f64,
    );
    add("proc.threads_peak", "threads", w.log.threads_peak as f64);
    add(
        "proc.cores_busy",
        "cores",
        w.cpu_secs / w.wall.as_secs_f64(),
    );
    add(
        "trace.overhead_ratio",
        "ratio",
        tw.txn_per_s() / w.txn_per_s(),
    );
    out
}

fn result_line(correct: bool, outcomes: &Outcomes, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.attempted,
        outcomes.failed(),
        body.join(", ")
    )
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`, which
/// holds one metric object per line.
fn declared_metrics(benchmark_json: &str, section: &str) -> Option<Vec<(String, String)>> {
    let quoted_after = |line: &str, key: &str| {
        let rest = line[line.find(key)? + key.len()..].strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_string())
    };
    let list = &benchmark_json[benchmark_json.find(&format!("\"{section}\": ["))?..];
    let list = &list[..list.find(']')?];
    Some(
        list.lines()
            .filter_map(|line| {
                Some((
                    quoted_after(line, "\"name\": ")?,
                    quoted_after(line, "\"unit\": ")?,
                ))
            })
            .collect(),
    )
}

/// Fails unless `metrics` are exactly the ones `BENCHMARK.json` (when
/// present in the working directory) declares in `section`.
fn check_declared(metrics: &[Metric], section: &str) -> Result<(), String> {
    let Ok(json) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let mut declared = declared_metrics(&json, section)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    let mut emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    declared.sort();
    emitted.sort();
    if declared != emitted {
        return Err(format!(
            "the {section} metrics differ from BENCHMARK.json: emitted {emitted:?}, declared {declared:?}"
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    check_environment()?;
    let items: Vec<ItemId> = (0..ITEMS).map(|i| ItemId::from(format!("x{i}"))).collect();
    let data_dir =
        PathBuf::from(DATA_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut notes = Vec::new();
    let measured = if args.trace {
        let half = args.seconds / 2.0;
        measure(args, &items, 0, half, 1, false, &data_dir.join("untraced")).and_then(|untraced| {
            Ok(vec![
                untraced,
                measure(args, &items, 0, half, 1, true, &data_dir.join("traced"))?,
            ])
        })
    } else {
        (0..ROUNDS)
            .map(|round| {
                let seconds = args.seconds / ROUNDS as f64;
                measure(
                    args,
                    &items,
                    round,
                    seconds,
                    SETUPS_PER_ROUND,
                    false,
                    &data_dir.join(format!("round-{round}")),
                )
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir(DATA_ROOT);
    let measured = measured?;
    let (metrics, reported) = if args.trace {
        let mut metrics = per_layer(&measured[0], &measured[1], &mut notes);
        metrics.extend(ungated(&measured[..1], &mut notes)?);
        (metrics, Vec::new())
    } else {
        (end_to_end(&measured)?, ungated(&measured, &mut notes)?)
    };
    check_declared(
        &metrics,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;

    let stack = cluster_config(args.workload, &data_dir, args.trace).stack;
    println!(
        "workload {}; stack {} {stack:?}; engine {:?}; nproc {nproc}; seed {}; clients {}",
        args.workload.name(),
        stack.label(),
        args.workload.engine(),
        args.seed,
        args.workload.clients(),
    );
    let mut outcomes = Outcomes::default();
    let mut correct = true;
    for (i, m) in measured.iter().enumerate() {
        outcomes.merge(&m.warmup);
        outcomes.merge(&m.window.log.outcomes);
        let w = &m.window;
        println!(
            "window {i}: wall {:.3} s; steal share {:.4}; committed {}; aborted {}; orphaned {}; \
             other errors {}; janitor cleanups {}; set-ups {:?} s",
            w.wall.as_secs_f64(),
            w.steal_share,
            w.log.outcomes.committed,
            w.log.outcomes.aborted,
            w.log.outcomes.orphaned,
            w.log.outcomes.other_errors,
            m.janitor_cleanups,
            m.setup_s,
        );
        match &m.audited {
            Ok(items) => println!("window {i}: audit passed on {items} items"),
            Err(e) => {
                eprintln!("perfbench: window {i}: {e}");
                correct = false;
            }
        }
    }
    for note in &notes {
        println!("note: {note}");
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for m in &reported {
        println!("{} = {} {} (reported, not gated)", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, &outcomes, &metrics));
    // A failed audit is a wrong answer: the result is reported, and the run fails.
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_bad_values() {
        let args = parse_args(strings(&["--workload", "read-mostly"])).unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ReadMostly,
                seed: 1,
                seconds: 10.0,
                trace: false
            }
        );
        let args = parse_args(strings(&[
            "--workload",
            "durable-rmw",
            "--seed",
            "9",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (9, 30.0, true));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "serial-rmw", "--trace", "2"],
            &["--workload", "serial-rmw", "--seconds", "2"],
            &["--workload", "serial-rmw", "--seconds", "NaN"],
            &["--workload", "serial-rmw", "--seed"],
            &["--workload", "serial-rmw", "--verbose", "1"],
        ] {
            assert!(parse_args(strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn declared_metrics_reads_one_list() {
        let json = r#"{
  "end_to_end": [
    {"name": "txn_per_s", "unit": "txn/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ],
  "per_layer": [
    {"name": "net.msgs_per_txn", "unit": "msg/txn", "better": "lower"}
  ]
}"#;
        let pair = |n: &str, u: &str| (n.to_string(), u.to_string());
        assert_eq!(
            declared_metrics(json, "end_to_end"),
            Some(vec![pair("txn_per_s", "txn/s"), pair("setup_s", "s")])
        );
        assert_eq!(
            declared_metrics(json, "per_layer"),
            Some(vec![pair("net.msgs_per_txn", "msg/txn")])
        );
        assert_eq!(declared_metrics(json, "workloads"), None);
    }
}
