//! Closed-loop generator threads: each owns one `Client`, issues its next
//! transaction only when the previous one returned, and times every call
//! into the client API from outside.

use crate::procfs::{self, IoCounters};
use crate::stats::{median, percentile, Outcomes};
use crate::workload::{Effects, Generator, Plan, Workload};
use rainbow_common::stats::{MessageStats, StatsSnapshot};
use rainbow_common::{ItemId, TxnError};
use rainbow_core::{Client, Cluster};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How often a generator thread samples the process's thread count.
const THREAD_SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// The client API calls the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Client::begin`.
    Begin,
    /// `Txn::write`: buffered at the coordinator, no remote work.
    Write,
    /// `Txn::increment`: a read-for-update quorum.
    Increment,
    /// `Txn::read_many`: one read quorum per item, assembled together.
    ReadMany,
    /// `Txn::commit`: write quorums plus the atomic commit protocol.
    Commit,
}

impl Call {
    /// Every call, in report order.
    pub const ALL: [Call; 5] = [
        Call::Begin,
        Call::Write,
        Call::Increment,
        Call::ReadMany,
        Call::Commit,
    ];

    /// The name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "begin",
            Call::Write => "write",
            Call::Increment => "increment",
            Call::ReadMany => "read_many",
            Call::Commit => "commit",
        }
    }
}

/// One generator thread's state that carries over from warm-up to the
/// timed window: its transaction stream and what its commits did.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// The seeded transaction stream.
    pub generator: Generator,
    /// The effects of every transaction it saw commit.
    pub effects: Effects,
}

impl ClientState {
    /// One state per client of `workload`.
    pub fn for_workload(workload: Workload, seed: u64) -> Vec<ClientState> {
        (0..workload.clients())
            .map(|client| ClientState {
                generator: Generator::new(workload, seed, client),
                effects: Effects::default(),
            })
            .collect()
    }
}

/// What one generator thread saw in one window.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// How its transactions ended.
    pub outcomes: Outcomes,
    /// Each committed transaction: when it returned, in nanoseconds since
    /// the window opened, and its latency (`begin` → `commit` returned) in
    /// nanoseconds. Moved into the [`Window`] when it is assembled.
    pub txns: Vec<(u64, u64)>,
    /// Per [`Call`] (indexed by its discriminant), each call's duration in
    /// nanoseconds, whether or not its transaction committed.
    pub calls_ns: [Vec<u64>; 5],
    /// Most threads the process had at any sample.
    pub threads_peak: u64,
}

impl ClientLog {
    fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.calls_ns[call as usize].push(start.elapsed().as_nanos() as u64);
        out
    }

    fn merge(&mut self, other: ClientLog) {
        self.outcomes.merge(&other.outcomes);
        self.txns.extend(other.txns);
        for (mine, theirs) in self.calls_ns.iter_mut().zip(other.calls_ns) {
            mine.extend(theirs);
        }
        self.threads_peak = self.threads_peak.max(other.threads_peak);
    }
}

/// The windows are cut into slices of this length; rates are reported as
/// medians over slices, so a stall of the host in one slice moves them
/// little.
pub const SLICE: Duration = Duration::from_secs(1);

/// One slice of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Its measured length in seconds.
    pub secs: f64,
    /// Transactions that committed in the slice.
    pub committed: u64,
    /// Process CPU seconds (all threads) spent in the slice.
    pub cpu_secs: f64,
    /// Median latency of the transactions that committed in the slice, in
    /// nanoseconds, when they support it.
    pub latency_p50_ns: Option<u64>,
}

/// Everything measured over one timed window.
#[derive(Debug)]
pub struct Window {
    /// From releasing the generators to the last one finishing.
    pub wall: Duration,
    /// All clients' logs merged, with `calls_ns` sorted.
    pub log: ClientLog,
    /// Latencies of the committed transactions in the order they returned.
    pub txn_ns_by_end: Vec<u64>,
    /// The whole slices of the window, in order.
    pub slices: Vec<Slice>,
    /// Process CPU seconds (all threads) spent in the window.
    pub cpu_secs: f64,
    /// Write counters of the window.
    pub io: IoCounters,
    /// Share of the host's CPU time stolen by other guests in the window.
    pub steal_share: f64,
    /// Messages sent in the window.
    pub messages: MessageStats,
    /// The statistics panel at the start of the window.
    pub stats_before: StatsSnapshot,
    /// The statistics panel at the end of the window.
    pub stats_after: StatsSnapshot,
}

impl Window {
    /// Committed transactions per second: the median over slices.
    pub fn txn_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.committed as f64 / s.secs)
            .collect();
        median(&rates)
    }

    /// Median latency in µs: the median over the slices that support one of
    /// the slice medians.
    pub fn latency_p50_us(&self) -> Option<f64> {
        let p50s: Vec<f64> = self
            .slices
            .iter()
            .filter_map(|s| s.latency_p50_ns)
            .map(|ns| ns as f64 / 1000.0)
            .collect();
        (!p50s.is_empty()).then(|| median(&p50s))
    }

    /// Process CPU µs per committed transaction: the median over the slices
    /// in which something committed.
    pub fn cpu_us_per_txn(&self) -> Option<f64> {
        let costs: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.committed > 0)
            .map(|s| s.cpu_secs * 1e6 / s.committed as f64)
            .collect();
        (!costs.is_empty()).then(|| median(&costs))
    }

    /// `count` divided by committed transactions.
    pub fn per_txn(&self, count: u64) -> f64 {
        count as f64 / self.log.outcomes.committed.max(1) as f64
    }
}

/// Runs every client of `states` against `cluster` in a closed loop for
/// `duration` and measures the window from outside the cluster.
pub fn drive(
    cluster: &Cluster,
    items: &[ItemId],
    states: &mut [ClientState],
    duration: Duration,
) -> Window {
    let barrier = Barrier::new(states.len() + 1);
    let counters = cluster.network_counters();
    std::thread::scope(|scope| {
        let threads: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = cluster.client();
                    barrier.wait();
                    generate(&mut client, items, state, Instant::now(), duration)
                })
            })
            .collect();
        let messages_before = counters.snapshot();
        let stats_before = cluster.stats();
        let io_before = procfs::read_io();
        let host_before = procfs::read_host_cpu();
        let cpu_before = procfs::read_cpu_secs();
        barrier.wait();
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut cpu_prev = cpu_before;
        let mut boundary = start + SLICE;
        while boundary <= start + duration {
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let cpu = procfs::read_cpu_secs();
            samples.push((start.elapsed(), cpu - cpu_prev));
            cpu_prev = cpu;
            boundary += SLICE;
        }
        let mut log = ClientLog::default();
        for thread in threads {
            log.merge(thread.join().expect("generator thread panicked"));
        }
        let wall = start.elapsed();
        let cpu_secs = procfs::read_cpu_secs() - cpu_before;
        let steal_share = procfs::read_host_cpu().steal_share_since(&host_before);
        let io_after = procfs::read_io();

        let mut by_end = std::mem::take(&mut log.txns);
        by_end.sort_unstable();
        // Slice i ends where the sampler read the counters for it, and
        // holds the commits that returned before then.
        let mut slices = Vec::with_capacity(samples.len());
        let (mut opened, mut rest) = (Duration::ZERO, &by_end[..]);
        for (closed, cpu_secs) in samples {
            let split = rest.partition_point(|(end, _)| *end < closed.as_nanos() as u64);
            let mut latencies: Vec<u64> =
                rest[..split].iter().map(|(_, latency)| *latency).collect();
            latencies.sort_unstable();
            slices.push(Slice {
                secs: (closed - opened).as_secs_f64(),
                committed: split as u64,
                cpu_secs,
                latency_p50_ns: percentile(&latencies, 50.0),
            });
            opened = closed;
            rest = &rest[split..];
        }
        for calls in &mut log.calls_ns {
            calls.sort_unstable();
        }
        Window {
            wall,
            log,
            txn_ns_by_end: by_end.into_iter().map(|(_, latency)| latency).collect(),
            slices,
            cpu_secs,
            io: IoCounters {
                write_bytes: io_after.write_bytes - io_before.write_bytes,
                write_calls: io_after.write_calls - io_before.write_calls,
            },
            steal_share,
            messages: counters.delta_since(&messages_before),
            stats_after: cluster.stats(),
            stats_before,
        }
    })
}

/// One generator thread: transactions back to back until `deadline`.
fn generate(
    client: &mut Client,
    items: &[ItemId],
    state: &mut ClientState,
    opened: Instant,
    duration: Duration,
) -> ClientLog {
    let deadline = opened + duration;
    let mut log = ClientLog {
        threads_peak: procfs::read_threads(),
        ..ClientLog::default()
    };
    let mut next_sample = Instant::now() + THREAD_SAMPLE_EVERY;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return log;
        }
        if now >= next_sample {
            log.threads_peak = log.threads_peak.max(procfs::read_threads());
            next_sample = now + THREAD_SAMPLE_EVERY;
        }
        let plan = state.generator.next_plan();
        log.outcomes.attempted += 1;
        let start = Instant::now();
        match run_txn(client, items, &plan, &mut log) {
            Ok(()) => {
                let latency = start.elapsed().as_nanos() as u64;
                log.txns.push((opened.elapsed().as_nanos() as u64, latency));
                log.outcomes.committed += 1;
                state.effects.commit(&plan);
            }
            Err(failure) => {
                log.outcomes.record_error(&failure.error);
                // A commit that neither committed nor aborted may have
                // installed its writes: the audit cannot predict them.
                if failure.at_commit && !matches!(failure.error, TxnError::Aborted(_)) {
                    state.effects.unknown(&plan);
                }
            }
        }
    }
}

/// A transaction that did not commit, and whether it got as far as the
/// commit call.
struct Failure {
    error: TxnError,
    at_commit: bool,
}

impl From<TxnError> for Failure {
    fn from(error: TxnError) -> Self {
        Failure {
            error,
            at_commit: false,
        }
    }
}

fn run_txn(
    client: &mut Client,
    items: &[ItemId],
    plan: &Plan,
    log: &mut ClientLog,
) -> Result<(), Failure> {
    let mut txn = log.time(Call::Begin, || client.begin("perfbench"))?;
    match plan {
        Plan::IncrementWrite { a, b, value } => {
            log.time(Call::Increment, || txn.increment(items[*a].clone(), 1))?;
            log.time(Call::Write, || txn.write(items[*b].clone(), *value))?;
        }
        Plan::ReadMany {
            items: read,
            update,
        } => {
            log.time(Call::ReadMany, || {
                txn.read_many(read.iter().map(|i| items[*i].clone()))
            })?;
            if let Some(i) = update {
                log.time(Call::Increment, || {
                    txn.increment(items[read[*i]].clone(), 1)
                })?;
            }
        }
        Plan::Increment { a } => {
            log.time(Call::Increment, || txn.increment(items[*a].clone(), 1))?;
        }
    }
    match log.time(Call::Commit, || txn.commit()) {
        Ok(_) => Ok(()),
        Err(error) => Err(Failure {
            error,
            at_commit: true,
        }),
    }
}
