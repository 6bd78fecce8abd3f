//! The benchmark's arithmetic: percentiles under the ten-samples-beyond
//! rule, medians, and counting failed transactions against attempts.

use rainbow_common::TxnError;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (0 < p < 100) of sorted samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it, in which
/// case the sample does not support that percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    if rank == 0 || sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The `p`-th percentile of each whole chunk of `chunk` consecutive
/// samples (in the order they were taken), and the median of those: a tail
/// estimate that one burst of slow samples cannot carry. `None` when no
/// whole chunk exists or a chunk does not support the percentile.
pub fn chunked_percentile(samples: &[u64], chunk: usize, p: f64) -> Option<f64> {
    let per_chunk: Vec<f64> = samples
        .chunks_exact(chunk)
        .map(|c| {
            let mut sorted = c.to_vec();
            sorted.sort_unstable();
            percentile(&sorted, p).map(|v| v as f64)
        })
        .collect::<Option<_>>()?;
    (!per_chunk.is_empty()).then(|| median(&per_chunk))
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How the attempted transactions of a run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Transactions begun (or whose `begin` was called).
    pub attempted: u64,
    /// Transactions whose `commit` returned `Ok`.
    pub committed: u64,
    /// Ended by [`TxnError::Aborted`].
    pub aborted: u64,
    /// Ended by [`TxnError::Orphaned`]: the client heard nothing in time.
    pub orphaned: u64,
    /// Ended by any other [`TxnError`].
    pub other_errors: u64,
}

impl Outcomes {
    /// Counts one transaction that ended in `error`.
    pub fn record_error(&mut self, error: &TxnError) {
        match error {
            TxnError::Aborted(_) => self.aborted += 1,
            TxnError::Orphaned { .. } => self.orphaned += 1,
            TxnError::Expired | TxnError::Finished => self.other_errors += 1,
        }
    }

    /// Transactions that did not commit.
    pub fn failed(&self) -> u64 {
        self.aborted + self.orphaned + self.other_errors
    }

    /// Failed transactions as a share of those attempted.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    /// Adds another client's counts.
    pub fn merge(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.orphaned += other.orphaned;
        self.other_errors += other.other_errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::{AbortCause, SiteId};

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=1000).collect();
        // rank ⌈0.99·1000⌉ = 990 leaves exactly 10 samples beyond; with 999
        // samples the rank is still 990 and only 9 lie beyond.
        assert_eq!(percentile(&samples, 99.0), Some(990));
        assert_eq!(percentile(&samples[..999], 99.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (0..100).map(|i| i * 10).collect();
        assert_eq!(percentile(&samples, 50.0), Some(490));
        assert_eq!(percentile(&samples, 90.0), Some(890));
        assert_eq!(percentile(&samples, 89.5), Some(890));
    }

    #[test]
    fn chunked_percentile_takes_the_median_over_whole_chunks() {
        // Three chunks of 1000 whose p99 are 990, 1990 and 2990; the
        // trailing partial chunk is ignored.
        let samples: Vec<u64> = (1..=3500).collect();
        assert_eq!(chunked_percentile(&samples, 1000, 99.0), Some(1990.0));
        // One slow burst inside a chunk moves only that chunk's p99.
        let mut bursty: Vec<u64> = (0..3000).map(|i| i % 1000).collect();
        bursty[10..30].fill(1_000_000);
        assert_eq!(chunked_percentile(&bursty, 1000, 99.0), Some(989.0));
        assert_eq!(chunked_percentile(&samples[..999], 1000, 99.0), None);
        assert_eq!(chunked_percentile(&samples, 100, 99.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failures_count_aborts_orphans_and_errors_against_attempts() {
        let mut outcomes = Outcomes {
            attempted: 200,
            committed: 196,
            ..Outcomes::default()
        };
        outcomes.record_error(&TxnError::Aborted(AbortCause::UserAbort));
        outcomes.record_error(&TxnError::Orphaned { home: SiteId(1) });
        outcomes.record_error(&TxnError::Expired);
        outcomes.record_error(&TxnError::Finished);
        assert_eq!(
            (outcomes.aborted, outcomes.orphaned, outcomes.other_errors),
            (1, 1, 2)
        );
        assert_eq!(outcomes.failed(), 4);
        assert!((outcomes.failed_ratio() - 0.02).abs() < 1e-12);

        let mut total = Outcomes::default();
        assert_eq!(total.failed_ratio(), 0.0);
        total.merge(&outcomes);
        total.merge(&outcomes);
        assert_eq!(total.attempted, 400);
        assert_eq!(total.failed(), 8);
        assert!((total.failed_ratio() - 0.02).abs() < 1e-12);
    }
}
