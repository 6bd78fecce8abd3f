//! Message-traffic accounting.
//!
//! Every message that enters the simulator is counted here: totals, per
//! message kind (e.g. `"2PC_PREPARE"`, `"QC_READ_REQ"`), per directed link,
//! plus drop counts. The quorum message-traffic experiment (DESIGN.md E-QC)
//! and the paper's "total number of messages generated per time unit"
//! statistic read these counters.

use crate::node::NodeId;
use parking_lot::Mutex;
use rainbow_common::stats::MessageStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe message counters. Cloning the handle (via `Arc`)
/// shares the same underlying counters.
#[derive(Debug, Default)]
pub struct NetworkCounters {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped_loss: AtomicU64,
    dropped_partition: AtomicU64,
    dropped_crash: AtomicU64,
    bytes: AtomicU64,
    round_trips: AtomicU64,
    by_kind: Mutex<BTreeMap<String, u64>>,
    by_link: Mutex<BTreeMap<(NodeId, NodeId), u64>>,
}

impl NetworkCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        NetworkCounters::default()
    }

    /// Records a message handed to the simulator.
    pub fn record_sent(&self, from: NodeId, to: NodeId, kind: &str, bytes: usize) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        *self.by_kind.lock().entry(kind.to_owned()).or_insert(0) += 1;
        *self.by_link.lock().entry((from, to)).or_insert(0) += 1;
    }

    /// Records one logical message carried inside a batch envelope: it
    /// counts under its own kind, while `sent` and the per-link counts
    /// keep counting the envelope (booked by [`NetworkCounters::record_sent`]).
    pub fn record_carried(&self, kind: &str) {
        *self.by_kind.lock().entry(kind.to_owned()).or_insert(0) += 1;
    }

    /// Records a successful delivery.
    pub fn record_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a message dropped by random loss.
    pub fn record_dropped_loss(&self) {
        self.dropped_loss.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a message dropped because sender and receiver are in
    /// different partitions.
    pub fn record_dropped_partition(&self) {
        self.dropped_partition.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a message dropped because the sender or receiver is crashed.
    pub fn record_dropped_crash(&self) {
        self.dropped_crash.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed request/response round trip (reported by the
    /// RPC layer in `rainbow-core`).
    pub fn record_round_trip(&self) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Total messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Total messages dropped so far (all reasons).
    pub fn dropped(&self) -> u64 {
        self.dropped_loss.load(Ordering::Relaxed)
            + self.dropped_partition.load(Ordering::Relaxed)
            + self.dropped_crash.load(Ordering::Relaxed)
    }

    /// Messages of one kind sent so far.
    pub fn kind(&self, kind: &str) -> u64 {
        self.by_kind.lock().get(kind).copied().unwrap_or(0)
    }

    /// Messages sent on one directed link so far.
    pub fn link(&self, from: NodeId, to: NodeId) -> u64 {
        self.by_link.lock().get(&(from, to)).copied().unwrap_or(0)
    }

    /// Completed round trips so far.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Snapshot as the common [`MessageStats`] type used by the progress
    /// monitor.
    pub fn snapshot(&self) -> MessageStats {
        MessageStats {
            sent: self.sent(),
            delivered: self.delivered(),
            dropped: self.dropped(),
            bytes: self.bytes.load(Ordering::Relaxed),
            by_kind: self.by_kind.lock().clone(),
            round_trips: self.round_trips(),
        }
    }

    /// Difference between this snapshot and an earlier one, used by windowed
    /// experiments ("messages per time unit").
    pub fn delta_since(&self, earlier: &MessageStats) -> MessageStats {
        let now = self.snapshot();
        let mut by_kind = BTreeMap::new();
        for (kind, count) in &now.by_kind {
            let before = earlier.by_kind.get(kind).copied().unwrap_or(0);
            if *count > before {
                by_kind.insert(kind.clone(), count - before);
            }
        }
        MessageStats {
            sent: now.sent.saturating_sub(earlier.sent),
            delivered: now.delivered.saturating_sub(earlier.delivered),
            dropped: now.dropped.saturating_sub(earlier.dropped),
            bytes: now.bytes.saturating_sub(earlier.bytes),
            by_kind,
            round_trips: now.round_trips.saturating_sub(earlier.round_trips),
        }
    }

    /// Resets everything to zero (used between experiment repetitions).
    pub fn reset(&self) {
        self.sent.store(0, Ordering::Relaxed);
        self.delivered.store(0, Ordering::Relaxed);
        self.dropped_loss.store(0, Ordering::Relaxed);
        self.dropped_partition.store(0, Ordering::Relaxed);
        self.dropped_crash.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.round_trips.store(0, Ordering::Relaxed);
        self.by_kind.lock().clear();
        self.by_link.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = NetworkCounters::new();
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        c.record_sent(a, b, "2PC_PREPARE", 100);
        c.record_sent(a, b, "2PC_PREPARE", 100);
        c.record_sent(b, a, "2PC_VOTE", 20);
        c.record_delivered();
        c.record_delivered();
        c.record_dropped_loss();
        c.record_round_trip();

        assert_eq!(c.sent(), 3);
        assert_eq!(c.delivered(), 2);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.kind("2PC_PREPARE"), 2);
        assert_eq!(c.kind("2PC_VOTE"), 1);
        assert_eq!(c.kind("missing"), 0);
        assert_eq!(c.link(a, b), 2);
        assert_eq!(c.link(b, a), 1);
        assert_eq!(c.round_trips(), 1);

        let snap = c.snapshot();
        assert_eq!(snap.sent, 3);
        assert_eq!(snap.bytes, 220);
        assert_eq!(snap.kind("2PC_PREPARE"), 2);
    }

    #[test]
    fn drop_reasons_all_count_toward_dropped() {
        let c = NetworkCounters::new();
        c.record_dropped_loss();
        c.record_dropped_partition();
        c.record_dropped_crash();
        assert_eq!(c.dropped(), 3);
    }

    #[test]
    fn delta_since_reports_only_new_traffic() {
        let c = NetworkCounters::new();
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        c.record_sent(a, b, "QC_READ", 10);
        let before = c.snapshot();
        c.record_sent(a, b, "QC_READ", 10);
        c.record_sent(a, b, "QC_WRITE", 10);
        c.record_delivered();
        let delta = c.delta_since(&before);
        assert_eq!(delta.sent, 2);
        assert_eq!(delta.delivered, 1);
        assert_eq!(delta.kind("QC_READ"), 1);
        assert_eq!(delta.kind("QC_WRITE"), 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = NetworkCounters::new();
        c.record_sent(NodeId::site(0), NodeId::site(1), "X", 5);
        c.record_delivered();
        c.reset();
        assert_eq!(c.sent(), 0);
        assert_eq!(c.delivered(), 0);
        assert_eq!(c.kind("X"), 0);
        assert_eq!(c.snapshot().bytes, 0);
    }
}
