//! Measurement primitives: the busy-time ledger behind every resource's
//! utilization series.
//!
//! The emulator's instrumentation (Section 5 of the paper reports
//! "application progress, overall runtime, and resource utilization for
//! each host and ASU") is built on it.

use crate::time::{SimDuration, SimTime};

/// Busy-time ledger with fixed-width bins, for utilization-vs-time series
/// like the paper's Figure 10.
///
/// `add_busy(start, end)` marks the half-open interval `[start, end)` as
/// busy, spreading it across bins. `utilization(bin)` is busy-ns / bin-ns.
#[derive(Debug, Clone)]
pub struct UtilizationLedger {
    bin_width: SimDuration,
    bins: Vec<u64>, // busy ns per bin
    total_busy: SimDuration,
}

impl UtilizationLedger {
    /// A ledger with the given bin width. Panics on zero width.
    pub fn new(bin_width: SimDuration) -> Self {
        assert!(bin_width > SimDuration::ZERO, "bin width must be positive");
        UtilizationLedger {
            bin_width,
            bins: Vec::new(),
            total_busy: SimDuration::ZERO,
        }
    }

    /// Mark `[start, end)` busy. Overlapping charges accumulate (callers
    /// modelling a single server should never overlap; multi-server
    /// callers may exceed 1.0 utilization per bin deliberately).
    pub fn add_busy(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        self.total_busy += end.since(start);
        let w = self.bin_width.as_nanos();
        let mut s = start.as_nanos();
        let e = end.as_nanos();
        // Fast path: the whole interval lands in one bin — the common
        // case, with µs-scale service times against 100ms default bins.
        let bin = (s / w) as usize;
        if e <= (bin as u64 + 1) * w {
            if self.bins.len() <= bin {
                self.bins.resize(bin + 1, 0);
            }
            self.bins[bin] += e - s;
            return;
        }
        while s < e {
            let bin = (s / w) as usize;
            let bin_end = (bin as u64 + 1) * w;
            let chunk = e.min(bin_end) - s;
            if self.bins.len() <= bin {
                self.bins.resize(bin + 1, 0);
            }
            self.bins[bin] += chunk;
            s += chunk;
        }
    }

    /// Total busy time recorded.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Utilization in `[0,1]`-ish per bin, up to and including the bin
    /// containing `horizon` (trailing empty bins included so series align).
    pub fn series(&self, horizon: SimTime) -> Vec<f64> {
        let w = self.bin_width.as_nanos();
        let nbins = (horizon.as_nanos() / w + 1) as usize;
        let mut out = Vec::with_capacity(nbins);
        for i in 0..nbins {
            let busy = self.bins.get(i).copied().unwrap_or(0);
            out.push(busy as f64 / w as f64);
        }
        out
    }

    /// The bin width this ledger was built with.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// Mean utilization over `[0, horizon]`.
    pub fn mean_utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.total_busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }

    /// Fold another ledger (same bin width) into this one, bin-wise.
    /// Busy intervals are disjoint facts about virtual time, so the merge
    /// of per-partition ledgers equals the sequential ledger exactly —
    /// bins are integer nanosecond sums, with no float accumulation
    /// order to worry about.
    pub fn merge(&mut self, other: &UtilizationLedger) {
        assert_eq!(
            self.bin_width, other.bin_width,
            "cannot merge ledgers with different bin widths"
        );
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.total_busy += other.total_busy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_splits_interval_across_bins() {
        let mut l = UtilizationLedger::new(SimDuration(10));
        l.add_busy(SimTime(5), SimTime(25)); // bins 0:[5,10)=5, 1:[10,20)=10, 2:[20,25)=5
        let s = l.series(SimTime(29));
        assert_eq!(s.len(), 3);
        assert!((s[0] - 0.5).abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
        assert!((s[2] - 0.5).abs() < 1e-12);
        assert_eq!(l.total_busy(), SimDuration(20));
    }

    #[test]
    fn ledger_empty_interval_is_noop() {
        let mut l = UtilizationLedger::new(SimDuration(10));
        l.add_busy(SimTime(5), SimTime(5));
        assert_eq!(l.total_busy(), SimDuration::ZERO);
        assert_eq!(l.series(SimTime(0)), vec![0.0]);
    }

    #[test]
    fn ledger_mean_utilization() {
        let mut l = UtilizationLedger::new(SimDuration(10));
        l.add_busy(SimTime(0), SimTime(50));
        assert!((l.mean_utilization(SimTime(100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merges_equal_the_unpartitioned_aggregates() {
        // Ledger: splitting the busy intervals across two ledgers and
        // merging reproduces the single-ledger series bit-for-bit.
        let mut whole = UtilizationLedger::new(SimDuration(10));
        whole.add_busy(SimTime(5), SimTime(25));
        whole.add_busy(SimTime(30), SimTime(31));
        let mut a = UtilizationLedger::new(SimDuration(10));
        let mut b = UtilizationLedger::new(SimDuration(10));
        a.add_busy(SimTime(5), SimTime(25));
        b.add_busy(SimTime(30), SimTime(31));
        a.merge(&b);
        assert_eq!(a.series(SimTime(35)), whole.series(SimTime(35)));
        assert_eq!(a.total_busy(), whole.total_busy());
    }

    #[test]
    #[should_panic(expected = "different bin widths")]
    fn ledger_merge_rejects_mismatched_bins() {
        let mut a = UtilizationLedger::new(SimDuration(10));
        let b = UtilizationLedger::new(SimDuration(20));
        a.merge(&b);
    }
}
