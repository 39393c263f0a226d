//! FCFS service resources: the CPUs, disks, and network links of the
//! emulated cluster.
//!
//! A [`Resource`] is a non-preemptive first-come-first-served server.
//! `acquire(now, service)` books the next available slot and returns the
//! `(start, end)` of service; the caller schedules its own completion event
//! at `end`. This models the paper's emulator, where each execution segment
//! or I/O occupies its device exclusively and the event queue enforces
//! causal order.

use crate::stats::UtilizationLedger;
use crate::time::{SimDuration, SimTime};

/// The booked service window returned by an acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= request time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Time spent queueing before service started.
    pub fn queue_delay(&self, requested_at: SimTime) -> SimDuration {
        self.start.since(requested_at)
    }
}

/// A single FCFS server with utilization accounting.
#[derive(Debug)]
pub struct Resource {
    free_at: SimTime,
    ledger: UtilizationLedger,
    grants: u64,
}

impl Resource {
    /// A new idle resource. `bin_width` sets the resolution of the
    /// utilization series this resource records.
    pub fn new(bin_width: SimDuration) -> Self {
        Resource {
            free_at: SimTime::ZERO,
            ledger: UtilizationLedger::new(bin_width),
            grants: 0,
        }
    }

    /// Book `service` time starting no earlier than `now`, behind any work
    /// already booked. Zero-length service is permitted and returns an
    /// empty window at the queue tail without occupying the server.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = now.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.ledger.add_busy(start, end);
        self.grants += 1;
        Grant { start, end }
    }

    /// The earliest time a new request would begin service.
    pub fn next_free(&self) -> SimTime {
        self.free_at
    }

    /// Whether the server is idle at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.free_at <= now
    }

    /// Backlog from `now` until the last booked work finishes.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.free_at.saturating_since(now)
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total busy time booked.
    pub fn total_busy(&self) -> SimDuration {
        self.ledger.total_busy()
    }

    /// Utilization series over `[0, horizon]` (see [`UtilizationLedger`]).
    pub fn utilization_series(&self, horizon: SimTime) -> Vec<f64> {
        self.ledger.series(horizon)
    }

    /// Mean utilization over `[0, horizon]`.
    pub fn mean_utilization(&self, horizon: SimTime) -> f64 {
        self.ledger.mean_utilization(horizon)
    }

    /// The ledger's bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.ledger.bin_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIN: SimDuration = SimDuration(1_000);

    #[test]
    fn fcfs_serializes_overlapping_requests() {
        let mut r = Resource::new(BIN);
        let a = r.acquire(SimTime(0), SimDuration(100));
        let b = r.acquire(SimTime(10), SimDuration(50));
        assert_eq!(a, Grant { start: SimTime(0), end: SimTime(100) });
        assert_eq!(b, Grant { start: SimTime(100), end: SimTime(150) });
        assert_eq!(b.queue_delay(SimTime(10)), SimDuration(90));
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new(BIN);
        r.acquire(SimTime(0), SimDuration(10));
        let g = r.acquire(SimTime(500), SimDuration(10));
        assert_eq!(g.start, SimTime(500));
        assert!(r.is_idle(SimTime(600)));
        assert!(!r.is_idle(SimTime(505)));
    }

    #[test]
    fn backlog_reflects_booked_work() {
        let mut r = Resource::new(BIN);
        r.acquire(SimTime(0), SimDuration(100));
        assert_eq!(r.backlog(SimTime(30)), SimDuration(70));
        assert_eq!(r.backlog(SimTime(200)), SimDuration::ZERO);
    }

    #[test]
    fn zero_service_does_not_occupy() {
        let mut r = Resource::new(BIN);
        let g = r.acquire(SimTime(5), SimDuration::ZERO);
        assert_eq!(g.start, g.end);
        assert_eq!(r.total_busy(), SimDuration::ZERO);
        assert!(r.is_idle(SimTime(5)));
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut r = Resource::new(BIN);
        r.acquire(SimTime(0), SimDuration(500));
        let s = r.utilization_series(SimTime(999));
        assert_eq!(s.len(), 1);
        assert!((s[0] - 0.5).abs() < 1e-12);
        assert!((r.mean_utilization(SimTime(1000)) - 0.5).abs() < 1e-12);
        assert_eq!(r.grants(), 1);
    }

    #[test]
    fn zero_service_behind_queued_work_is_an_empty_window() {
        // The end-of-stream charge: a zero-length grant queues behind
        // booked work, adds no busy time and leaves `free_at` in place,
        // so one such grant stands for any number of them.
        let mut r = Resource::new(BIN);
        r.acquire(SimTime(0), SimDuration(50));
        let g = r.acquire(SimTime(10), SimDuration::ZERO);
        assert_eq!(g.start, SimTime(50));
        assert_eq!(g.end, SimTime(50));
        assert_eq!(r.next_free(), SimTime(50));
        assert_eq!(r.total_busy(), SimDuration(50));
        let again = r.acquire(SimTime(10), SimDuration::ZERO);
        assert_eq!(again, g);
        assert_eq!(r.utilization_series(SimTime(100)), vec![0.05]);
    }
}
