//! Sequential-disk timing model (Section 5 of the paper).
//!
//! > "The disk simulation uses a base aggregate transfer rate to calculate
//! > elapsed time under an I/O load, assuming read-ahead and write caching
//! > for sequential I/O: the disk initiates the next I/O automatically,
//! > and writes wait only for the previous write to complete."
//!
//! [`DiskParams`] carries the rate; [`DiskSim`] is the stateful timeline:
//!
//! - **Reads** are pipelined: the media begins the next sequential
//!   transfer as soon as the previous one finishes (bounded by a
//!   read-ahead window), so a requester consuming at media rate never
//!   stalls between blocks.
//! - **Writes** are write-behind: the caller resumes once the *previous*
//!   write has been absorbed by the media, not when its own write lands.
//!
//! Seek and rotational delays are deliberately not modelled, exactly as in
//! the paper ("our current experiments perform all I/O sequentially"); a
//! per-request overhead knob exists for sensitivity studies.

use crate::bte::BteStats;
use lmas_sim::{SimDuration, SimTime, UtilizationLedger};

/// Disk timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Base aggregate sequential transfer rate, bytes per second.
    pub rate_bytes_per_sec: f64,
    /// Fixed overhead charged per request (0 in the paper's model).
    pub per_request_overhead: SimDuration,
    /// How far (in bytes) the media may run ahead of the last read that
    /// was actually requested. Models the drive's read-ahead buffer.
    pub readahead_window: u64,
}

impl DiskParams {
    /// A 2002-era disk: ~25 MB/s sequential, no per-request overhead,
    /// 2 MiB of read-ahead.
    pub fn era_2002() -> Self {
        DiskParams {
            rate_bytes_per_sec: 25.0e6,
            per_request_overhead: SimDuration::ZERO,
            readahead_window: 2 << 20,
        }
    }

    /// A 2002-era ASU storage "brick": several spindles behind one
    /// network port (the paper motivates ASUs as enabling "aggregation
    /// of larger numbers of drives behind each network port"), giving
    /// ~100 MB/s aggregate sequential bandwidth.
    pub fn asu_brick_2002() -> Self {
        DiskParams {
            rate_bytes_per_sec: 100.0e6,
            per_request_overhead: SimDuration::ZERO,
            readahead_window: 8 << 20,
        }
    }

    /// Media time to transfer `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        assert!(
            self.rate_bytes_per_sec > 0.0,
            "disk rate must be positive"
        );
        self.per_request_overhead
            + SimDuration::from_secs_f64(bytes as f64 / self.rate_bytes_per_sec)
    }
}

/// Stateful per-disk timeline applying read-ahead and write-behind rules.
#[derive(Debug)]
pub struct DiskSim {
    params: DiskParams,
    /// When the media head frees from all work issued so far.
    media_free: SimTime,
    /// Bytes the media has transferred ahead of explicit read requests.
    prefetched_bytes: u64,
    /// Rate in force when the media last went idle (i.e. when
    /// `media_free` was last advanced). Idle-gap prefetch is priced at
    /// this snapshot, so a `set_rate` between requests never reprices
    /// media work that conceptually already happened.
    idle_rate: f64,
    ledger: UtilizationLedger,
    stats: BteStats,
}

impl DiskSim {
    /// New idle disk. `bin_width` sets utilization-series resolution.
    pub fn new(params: DiskParams, bin_width: SimDuration) -> Self {
        DiskSim {
            params,
            media_free: SimTime::ZERO,
            prefetched_bytes: 0,
            idle_rate: params.rate_bytes_per_sec,
            ledger: UtilizationLedger::new(bin_width),
            stats: BteStats::default(),
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> DiskParams {
        self.params
    }

    /// Change the media transfer rate mid-run (fault injection: degraded
    /// nodes keep serving I/O, just slower). Work already issued keeps its
    /// original timing — busy bins already in the ledger are never
    /// repriced, and prefetch accrued during an idle gap is priced at the
    /// rate that was in force when the gap began (snapshotted per
    /// request), not at the rate in force when the next request arrives.
    pub fn set_rate(&mut self, rate_bytes_per_sec: f64) {
        assert!(rate_bytes_per_sec > 0.0, "disk rate must be positive");
        self.params.rate_bytes_per_sec = rate_bytes_per_sec;
    }

    /// Sequential read of `bytes` requested at `now`; returns when the
    /// data is available to the requester.
    ///
    /// Thanks to read-ahead the media may already have transferred some or
    /// all of the data before the request arrives; the requester then
    /// proceeds immediately at `now`.
    pub fn read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.stats.reads += 1;
        self.stats.bytes_read += bytes;
        // While the requester was away, the media self-initiated reads of
        // the following sequential data, up to the read-ahead window.
        // That work happened *during the gap*, so it is priced at the rate
        // snapshotted when the gap began (`idle_rate`) — a `set_rate`
        // issued meanwhile must not retroactively reprice it.
        if now > self.media_free && self.prefetched_bytes < self.params.readahead_window {
            let idle = now.since(self.media_free);
            let idle_bytes = (idle.as_secs_f64() * self.idle_rate) as u64;
            let added =
                idle_bytes.min(self.params.readahead_window - self.prefetched_bytes);
            if added > 0 {
                // Prefetch pays raw media time, no per-request overhead.
                let t = SimDuration::from_secs_f64(added as f64 / self.idle_rate);
                let pstart = self.media_free;
                self.ledger.add_busy(pstart, pstart + t);
                self.advance_media(pstart + t);
                self.prefetched_bytes += added;
            }
        }
        // Buffered bytes satisfy the request without further media time.
        let from_buffer = bytes.min(self.prefetched_bytes);
        self.prefetched_bytes -= from_buffer;
        let remaining = bytes - from_buffer;
        if remaining == 0 {
            // Entirely satisfied from the read-ahead buffer.
            return now;
        }
        let service = self.params.transfer_time(remaining);
        let start = now.max(self.media_free);
        let end = start + service;
        self.ledger.add_busy(start, end);
        self.advance_media(end);
        end
    }

    /// Sequential write of `bytes` posted at `now`; returns when the
    /// caller may proceed (write-behind: once the previous write has been
    /// absorbed, not when this one lands).
    pub fn write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.stats.writes += 1;
        self.stats.bytes_written += bytes;
        // Wait for the media to absorb everything previously issued.
        let proceed = now.max(self.media_free);
        let service = self.params.transfer_time(bytes);
        let end = proceed + service;
        self.ledger.add_busy(proceed, end);
        self.advance_media(end);
        // A write disrupts the sequential read stream.
        self.prefetched_bytes = 0;
        proceed
    }

    /// Advance `media_free` and re-snapshot the rate that will govern any
    /// idle gap starting at that instant.
    fn advance_media(&mut self, free: SimTime) {
        self.media_free = free;
        self.idle_rate = self.params.rate_bytes_per_sec;
    }

    /// When all issued media work completes (for drain/makespan).
    pub fn quiesce_time(&self) -> SimTime {
        self.media_free
    }

    /// Lifetime transfer counters (one counter type, shared with the
    /// striped array and the emulator reports).
    pub fn stats(&self) -> BteStats {
        self.stats
    }

    /// Lifetime counters: (reads, writes, bytes_read, bytes_written).
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        self.stats.as_tuple()
    }

    /// Media utilization series over `[0, horizon]`.
    pub fn utilization_series(&self, horizon: SimTime) -> Vec<f64> {
        self.ledger.series(horizon)
    }

    /// Total media busy time.
    pub fn total_busy(&self) -> SimDuration {
        self.ledger.total_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(rate: f64) -> DiskParams {
        DiskParams {
            rate_bytes_per_sec: rate,
            per_request_overhead: SimDuration::ZERO,
            readahead_window: 1 << 20,
        }
    }

    const BIN: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn transfer_time_is_bytes_over_rate() {
        let p = params(1e6); // 1 MB/s
        assert_eq!(p.transfer_time(1_000_000), SimDuration::from_secs(1));
        assert_eq!(p.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_reads_stream_at_media_rate() {
        // 1 MB/s; 10 reads of 100kB = 1s total, no gaps.
        let mut d = DiskSim::new(params(1e6), BIN);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now = d.read(now, 100_000);
        }
        assert_eq!(now, SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn slow_consumer_hides_read_latency_via_readahead() {
        // Media needs 100ms per read; consumer takes 200ms between reads.
        // After the first read, subsequent data is prefetched: ready==now.
        let mut d = DiskSim::new(params(1e6), BIN);
        let t1 = d.read(SimTime::ZERO, 100_000);
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_millis(100));
        let consumer_back = t1 + SimDuration::from_millis(200);
        let t2 = d.read(consumer_back, 100_000);
        assert_eq!(t2, consumer_back, "prefetched data is ready immediately");
    }

    #[test]
    fn readahead_window_bounds_prefetch() {
        let mut p = params(1e6);
        p.readahead_window = 50_000; // only half a request can prefetch
        let mut d = DiskSim::new(p, BIN);
        let t1 = d.read(SimTime::ZERO, 100_000);
        let consumer_back = t1 + SimDuration::from_secs(10); // ages of idle
        let t2 = d.read(consumer_back, 100_000);
        // 50kB buffered, 50kB still to transfer = 50ms.
        assert_eq!(t2, consumer_back + SimDuration::from_millis(50));
    }

    #[test]
    fn write_behind_returns_before_media_finishes() {
        let mut d = DiskSim::new(params(1e6), BIN);
        let p1 = d.write(SimTime::ZERO, 100_000);
        assert_eq!(p1, SimTime::ZERO, "first write proceeds immediately");
        // Second write 10ms later must wait for the first to finish (100ms).
        let p2 = d.write(SimTime(10_000_000), 100_000);
        assert_eq!(p2, SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!(
            d.quiesce_time(),
            SimTime::ZERO + SimDuration::from_millis(200)
        );
    }

    #[test]
    fn write_resets_read_prefetch() {
        let mut d = DiskSim::new(params(1e6), BIN);
        let t1 = d.read(SimTime::ZERO, 100_000);
        let idle = t1 + SimDuration::from_secs(1);
        let _ = d.write(idle, 10_000);
        // Prefetch was discarded: the next read pays full media time.
        let t2 = d.read(d.quiesce_time(), 100_000);
        assert_eq!(t2, d.quiesce_time());
        let (r, w, br, bw) = d.counters();
        assert_eq!((r, w), (2, 1));
        assert_eq!((br, bw), (200_000, 10_000));
    }

    #[test]
    fn per_request_overhead_charged() {
        let mut p = params(1e6);
        p.per_request_overhead = SimDuration::from_millis(5);
        assert_eq!(
            p.transfer_time(100_000),
            SimDuration::from_millis(105)
        );
    }

    #[test]
    fn set_rate_does_not_reprice_idle_prefetch() {
        // Media idles 100ms at 1 MB/s, then the rate is raised to 10 MB/s
        // (a Degrade fault clearing, say). The idle gap must accrue
        // prefetch at the OLD rate — 100 kB, not 1 MB.
        let mut d = DiskSim::new(params(1e6), BIN);
        let t1 = d.read(SimTime::ZERO, 100_000);
        d.set_rate(10.0e6);
        let back = t1 + SimDuration::from_millis(100);
        let t2 = d.read(back, 200_000);
        // 100 kB prefetched at the old rate; the remaining 100 kB
        // transfers at the new rate = 10ms.
        assert_eq!(t2, back + SimDuration::from_millis(10));
    }

    #[test]
    fn set_rate_degrade_does_not_inflate_prior_busy() {
        // Symmetric case: degrading mid-idle must not make the past idle
        // gap accrue *less* prefetch than the old rate delivered.
        let mut d = DiskSim::new(params(1e6), BIN);
        let t1 = d.read(SimTime::ZERO, 100_000);
        d.set_rate(0.5e6);
        let back = t1 + SimDuration::from_millis(100);
        let t2 = d.read(back, 100_000);
        // The full 100 kB was prefetched during the gap at the old 1 MB/s.
        assert_eq!(t2, back, "prefetch accrued at the pre-degrade rate");
    }

    #[test]
    fn stats_match_counters_tuple() {
        let mut d = DiskSim::new(params(1e6), BIN);
        let _ = d.read(SimTime::ZERO, 1_000);
        let _ = d.write(SimTime::ZERO, 2_000);
        let s = d.stats();
        assert_eq!(d.counters(), s.as_tuple());
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!((s.bytes_read, s.bytes_written), (1_000, 2_000));
    }

    #[test]
    fn utilization_reflects_media_busy() {
        let mut d = DiskSim::new(params(1e6), BIN);
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now = d.read(now, 100_000);
        }
        // 500ms busy out of 500ms elapsed: fully utilized.
        assert!((d.total_busy().as_secs_f64() - 0.5).abs() < 1e-9);
    }
}
