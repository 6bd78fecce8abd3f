//! The trace sink: sharded span storage, per-phase histograms, sampling
//! and the worst-N slow-transaction ring.
//!
//! Every layer of the cluster holds an `Option<Arc<Tracer>>`; `None` keeps
//! the recording branches dead so a cluster with tracing disabled pays one
//! `Option` check and nothing else (the same pattern as the history sink).

use crate::event::{Meter, Phase, TraceEvent, Track};
use crate::histogram::LogHistogram;
use parking_lot::Mutex;
use rainbow_common::{LatencyStats, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Number of event shards; txn-keyed so concurrent coordinators rarely
/// contend on the same lock.
const SHARDS: usize = 16;

/// Tracing configuration, part of `ClusterConfig`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master switch. When false no tracer is created at all and every
    /// recording branch in the hot path is dead.
    pub enabled: bool,
    /// Span sampling: participant-side and network span events are kept
    /// for transactions whose sequence number is divisible by this.
    /// `1` keeps every transaction, `0` keeps none (phase histograms
    /// only). Sampling is deterministic on the transaction id, so the
    /// coordinator and every participant agree without carrying trace
    /// context in messages.
    pub sample_one_in: u32,
    /// The worst-N ring: the N slowest transactions' coordinator span
    /// trees are always retained, sampled or not, so outliers are never
    /// lost to sampling.
    pub slowest_capacity: usize,
    /// Upper bound on retained span events; beyond it new events are
    /// counted as dropped instead of stored (constant memory).
    pub max_events: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            sample_one_in: 1,
            slowest_capacity: 8,
            max_events: 200_000,
        }
    }
}

impl TraceConfig {
    /// Tracing off (the default; zero hot-path cost).
    pub fn disabled() -> Self {
        TraceConfig::default()
    }

    /// Tracing on, every transaction's spans retained.
    pub fn sample_all() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Tracing on, but only the phase histograms and the worst-N ring are
    /// populated — no per-transaction span retention. The cheap setting
    /// sweeps and long-running clusters use.
    pub fn histograms_only() -> Self {
        TraceConfig {
            enabled: true,
            sample_one_in: 0,
            ..TraceConfig::default()
        }
    }

    /// Sets the span sampling rate (see [`TraceConfig::sample_one_in`]).
    pub fn with_sample_one_in(mut self, one_in: u32) -> Self {
        self.sample_one_in = one_in;
        self
    }

    /// Sets the worst-N ring capacity.
    pub fn with_slowest_capacity(mut self, n: usize) -> Self {
        self.slowest_capacity = n;
        self
    }
}

/// Worst-N ring: the ids and total durations of the slowest transactions
/// seen so far.
#[derive(Debug, Default)]
struct SlowestRing {
    capacity: usize,
    entries: Vec<(u64, TxnId)>, // (total duration µs, txn)
}

impl SlowestRing {
    /// Offers a finished transaction; returns true when it enters the ring
    /// (and therefore deserves span retention).
    fn offer(&mut self, txn: TxnId, dur_us: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((dur_us, txn));
            return true;
        }
        let (min_index, &(min_dur, _)) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (d, _))| *d)
            .expect("ring not empty");
        if dur_us > min_dur {
            self.entries[min_index] = (dur_us, txn);
            true
        } else {
            false
        }
    }
}

/// The cluster-wide trace sink.
///
/// One `Tracer` is created per cluster when `TraceConfig::enabled` is set
/// and handed (as `Option<Arc<Tracer>>`) to the coordinator, every site,
/// the storage layer and the network simulator. All methods take `&self`
/// and are thread-safe.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    epoch: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    retained: AtomicUsize,
    dropped: AtomicU64,
    phases: Vec<Mutex<LogHistogram>>,
    meters: Vec<Mutex<LogHistogram>>,
    slowest: Mutex<SlowestRing>,
}

impl Tracer {
    /// A tracer with the given configuration. The epoch (timestamp zero of
    /// every span) is the moment of creation.
    pub fn new(config: TraceConfig) -> Self {
        let slowest = SlowestRing {
            capacity: config.slowest_capacity,
            entries: Vec::new(),
        };
        Tracer {
            config,
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            retained: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            phases: Phase::ALL
                .iter()
                .map(|_| Mutex::new(LogHistogram::new()))
                .collect(),
            meters: Meter::ALL
                .iter()
                .map(|_| Mutex::new(LogHistogram::new()))
                .collect(),
            slowest: Mutex::new(slowest),
        }
    }

    /// The configuration this tracer was created with.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Microseconds since the tracer's epoch; the time base of every span.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Deterministic span sampling decision for a transaction. The same
    /// formula runs at the coordinator and at every participant, so they
    /// agree without message changes.
    pub fn sampled(&self, txn: TxnId) -> bool {
        match self.config.sample_one_in {
            0 => false,
            1 => true,
            n => txn.seq.is_multiple_of(n as u64),
        }
    }

    fn shard(&self, txn: TxnId) -> &Mutex<Vec<TraceEvent>> {
        let key = txn.seq ^ ((txn.home.0 as u64) << 32);
        &self.shards[key as usize % SHARDS]
    }

    fn store(&self, shard: &Mutex<Vec<TraceEvent>>, events: Vec<TraceEvent>) {
        let n = events.len();
        if n == 0 {
            return;
        }
        if self.retained.fetch_add(n, Ordering::Relaxed) + n > self.config.max_events {
            self.retained.fetch_sub(n, Ordering::Relaxed);
            self.dropped.fetch_add(n as u64, Ordering::Relaxed);
            return;
        }
        shard.lock().extend(events);
    }

    /// Records one completed span (participant / network side). The caller
    /// is expected to have checked [`Tracer::sampled`] first.
    pub fn record(&self, event: TraceEvent) {
        let shard = self.shard(event.txn);
        self.store(shard, vec![event]);
    }

    /// Convenience: records a span that started at `start_us` and ends now.
    pub fn span_since(
        &self,
        txn: TxnId,
        track: Track,
        label: impl Into<String>,
        start_us: u64,
        detail: impl Into<String>,
    ) {
        let end = self.now_us();
        self.record(TraceEvent {
            txn,
            track,
            label: label.into(),
            start_us,
            dur_us: end.saturating_sub(start_us),
            detail: detail.into(),
        });
    }

    /// Records one phase latency sample. Phase histograms are always
    /// populated while tracing is enabled, independent of span sampling.
    pub fn record_phase(&self, phase: Phase, dur: Duration) {
        self.phases[phase.index()].lock().record_duration(dur);
    }

    /// Finishes a transaction's coordinator-side trace. The coordinator
    /// buffers its spans locally for *every* transaction and hands them in
    /// here; they are retained when the transaction is sampled **or** slow
    /// enough for the worst-N ring. Returns whether the spans were kept.
    pub fn finish_txn(&self, txn: TxnId, total: Duration, events: Vec<TraceEvent>) -> bool {
        let dur_us = u64::try_from(total.as_micros()).unwrap_or(u64::MAX);
        let slow = self.slowest.lock().offer(txn, dur_us);
        let keep = self.sampled(txn) || slow;
        if keep {
            let shard = self.shard(txn);
            self.store(shard, events);
        }
        keep
    }

    /// Records one meter sample — a raw magnitude (queue depth, batch
    /// size), not a duration. Like phase histograms, meters are always
    /// populated while tracing is enabled, independent of span sampling.
    pub fn record_meter(&self, meter: Meter, value: u64) {
        self.meters[meter.index()].lock().record(value);
    }

    /// A merged clone of one meter's histogram.
    pub fn meter_histogram(&self, meter: Meter) -> LogHistogram {
        self.meters[meter.index()].lock().clone()
    }

    /// Per-meter magnitude summaries, keyed by [`Meter::name`]. The
    /// `LatencyStats` fields read as raw values, not microseconds. Meters
    /// with no samples are omitted.
    pub fn meter_stats(&self) -> BTreeMap<String, LatencyStats> {
        let mut out = BTreeMap::new();
        for meter in Meter::ALL {
            let hist = self.meters[meter.index()].lock();
            if !hist.is_empty() {
                out.insert(meter.name().to_string(), hist.to_latency_stats());
            }
        }
        out
    }

    /// A merged clone of one phase's histogram.
    pub fn phase_histogram(&self, phase: Phase) -> LogHistogram {
        self.phases[phase.index()].lock().clone()
    }

    /// Per-phase latency summaries, keyed by [`Phase::name`]. Phases with
    /// no samples are omitted.
    pub fn phase_stats(&self) -> BTreeMap<String, LatencyStats> {
        let mut out = BTreeMap::new();
        for phase in Phase::ALL {
            let hist = self.phases[phase.index()].lock();
            if !hist.is_empty() {
                out.insert(phase.name().to_string(), hist.to_latency_stats());
            }
        }
        out
    }

    /// Every retained span, sorted by transaction, then start time, then
    /// longest-first (so parents sort before their children).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::with_capacity(self.retained.load(Ordering::Relaxed));
        for shard in &self.shards {
            all.extend(shard.lock().iter().cloned());
        }
        all.sort_by(|a, b| (a.txn, a.start_us, b.dur_us).cmp(&(b.txn, b.start_us, a.dur_us)));
        all
    }

    /// The retained spans of one transaction, in span-tree order.
    pub fn txn_events(&self, txn: TxnId) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .shard(txn)
            .lock()
            .iter()
            .filter(|e| e.txn == txn)
            .cloned()
            .collect();
        events.sort_by(|a, b| (a.start_us, b.dur_us).cmp(&(b.start_us, a.dur_us)));
        events
    }

    /// Distinct transactions with retained spans, sorted.
    pub fn traced_txns(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = Vec::new();
        for shard in &self.shards {
            txns.extend(shard.lock().iter().map(|e| e.txn));
        }
        txns.sort_unstable();
        txns.dedup();
        txns
    }

    /// The worst-N ring contents: `(txn, total duration µs)`, slowest
    /// first.
    pub fn slowest(&self) -> Vec<(TxnId, u64)> {
        let mut entries: Vec<(TxnId, u64)> = self
            .slowest
            .lock()
            .entries
            .iter()
            .map(|&(d, t)| (t, d))
            .collect();
        entries.sort_by_key(|&(_, dur)| std::cmp::Reverse(dur));
        entries
    }

    /// Events dropped because the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn event(t: TxnId, label: &str, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            txn: t,
            track: Track::Coordinator,
            label: label.into(),
            start_us,
            dur_us,
            detail: String::new(),
        }
    }

    #[test]
    fn sampling_is_deterministic_on_the_txn_id() {
        let tracer = Tracer::new(TraceConfig::sample_all().with_sample_one_in(4));
        assert!(tracer.sampled(txn(0)));
        assert!(tracer.sampled(txn(8)));
        assert!(!tracer.sampled(txn(3)));
        let none = Tracer::new(TraceConfig::histograms_only());
        assert!(!none.sampled(txn(0)));
        let all = Tracer::new(TraceConfig::sample_all());
        assert!(all.sampled(txn(17)));
    }

    #[test]
    fn events_round_trip_through_shards() {
        let tracer = Tracer::new(TraceConfig::sample_all());
        for seq in 0..40 {
            tracer.record(event(txn(seq), "leg", seq, 5));
        }
        let all = tracer.events();
        assert_eq!(all.len(), 40);
        assert_eq!(tracer.traced_txns().len(), 40);
        let one = tracer.txn_events(txn(7));
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].start_us, 7);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn retention_cap_counts_drops_instead_of_growing() {
        let mut config = TraceConfig::sample_all();
        config.max_events = 3;
        let tracer = Tracer::new(config);
        for seq in 0..10 {
            tracer.record(event(txn(seq), "leg", seq, 1));
        }
        assert_eq!(tracer.events().len(), 3);
        assert_eq!(tracer.dropped(), 7);
    }

    #[test]
    fn worst_n_ring_keeps_slow_unsampled_transactions() {
        // Sampling keeps nothing, but the ring (capacity 2) must still
        // retain the two slowest transactions' coordinator spans.
        let mut config = TraceConfig::histograms_only();
        config.slowest_capacity = 2;
        let tracer = Tracer::new(config);
        for seq in 0..10u64 {
            let total = Duration::from_micros(100 * (seq + 1));
            tracer.finish_txn(txn(seq), total, vec![event(txn(seq), "conv", 0, 100)]);
        }
        let slowest = tracer.slowest();
        assert_eq!(slowest.len(), 2);
        assert_eq!(slowest[0].0, txn(9));
        assert_eq!(slowest[1].0, txn(8));
        // Spans for ring members were retained even though unsampled. The
        // ring admits transactions optimistically in arrival order, so
        // early (later-evicted) members may also have left spans behind;
        // what matters is that the final slowest set is present.
        for (t, _) in slowest {
            assert!(!tracer.txn_events(t).is_empty());
        }
    }

    #[test]
    fn phase_histograms_aggregate_independently_of_sampling() {
        let tracer = Tracer::new(TraceConfig::histograms_only());
        tracer.record_phase(Phase::LockWait, Duration::from_micros(50));
        tracer.record_phase(Phase::LockWait, Duration::from_micros(150));
        tracer.record_phase(Phase::WalForce, Duration::from_micros(10));
        let stats = tracer.phase_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats["lock-wait"].count, 2);
        assert_eq!(stats["wal-force"].count, 1);
        assert!(!stats.contains_key("prepare"));
        assert!(!tracer.phase_histogram(Phase::LockWait).is_empty());
    }

    #[test]
    fn meter_histograms_record_raw_magnitudes() {
        let tracer = Tracer::new(TraceConfig::histograms_only());
        tracer.record_meter(Meter::DispatchDrain, 3);
        tracer.record_meter(Meter::DispatchDrain, 17);
        tracer.record_meter(Meter::DispatchBatchSize, 8);
        let stats = tracer.meter_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats["dispatch-drain"].count, 2);
        assert_eq!(stats["dispatch-batch-size"].count, 1);
        assert!(!tracer.meter_histogram(Meter::DispatchBatchSize).is_empty());
        // An untouched tracer reports no meters at all.
        let idle = Tracer::new(TraceConfig::sample_all());
        assert!(idle.meter_stats().is_empty());
    }

    #[test]
    fn span_since_computes_duration_from_the_epoch_clock() {
        let tracer = Tracer::new(TraceConfig::sample_all());
        let start = tracer.now_us();
        tracer.span_since(txn(1), Track::Net, "queue", start, "KIND");
        let events = tracer.txn_events(txn(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "queue");
        assert_eq!(events[0].detail, "KIND");
    }
}
