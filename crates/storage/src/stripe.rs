//! Striped multi-disk extents: one ASU, `d` spindles.
//!
//! The paper motivates ASUs as "aggregation of larger numbers of drives
//! behind each network port" and Section 6 scales per-node bandwidth with
//! the number of disks `D`. [`StripedDisk`] models that: it owns `d`
//! independent [`DiskSim`] timelines and maps blocks to disks
//! deterministically, so independent stripes are charged in *parallel*
//! virtual time and aggregate sequential bandwidth scales with `d`.
//!
//! Placement is round-robin over stripe *units* of several blocks
//! (`disk_of(b) = (b / blocks_per_stripe) % d`), not over single blocks:
//! adjacent blocks inside a unit share a spindle, so the buffer pool's
//! write-behind coalescing (merging adjacent dirty blocks into one
//! sequential charge) still finds contiguous runs on one disk, while
//! successive units fan out across all spindles.
//!
//! With `d == 1` every call delegates verbatim to the single underlying
//! [`DiskSim`], keeping the default configuration byte-identical to the
//! unstriped model.

use crate::bte::BteStats;
use crate::disk_model::{DiskParams, DiskSim};
use lmas_sim::{SimDuration, SimTime};

/// An array of `d` disk timelines with deterministic block→disk striping.
#[derive(Debug)]
pub struct StripedDisk {
    disks: Vec<DiskSim>,
    blocks_per_stripe: u64,
    stripe_bytes: u64,
}

impl StripedDisk {
    /// New array of `disks` identical spindles. `blocks_per_stripe` sets
    /// the stripe unit (in blocks of `block_bytes`); `bin_width` sets the
    /// per-disk utilization-series resolution.
    pub fn new(
        params: DiskParams,
        disks: usize,
        blocks_per_stripe: u64,
        block_bytes: u64,
        bin_width: SimDuration,
    ) -> StripedDisk {
        assert!(disks > 0, "need at least one disk");
        assert!(blocks_per_stripe > 0, "stripe unit must be at least one block");
        assert!(block_bytes > 0, "block size must be positive");
        StripedDisk {
            disks: (0..disks).map(|_| DiskSim::new(params, bin_width)).collect(),
            blocks_per_stripe,
            stripe_bytes: blocks_per_stripe * block_bytes,
        }
    }

    /// Deterministic block→disk placement: round-robin over stripe units.
    pub fn disk_of(&self, block: u64) -> usize {
        ((block / self.blocks_per_stripe) % self.disks.len() as u64) as usize
    }

    /// Sequential byte-stream read of `bytes` posted at `now`; the stream
    /// is striped across all spindles in stripe-unit segments charged in
    /// parallel, and the caller resumes when the slowest spindle delivers.
    pub fn read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        if self.disks.len() == 1 {
            return self.disks[0].read(now, bytes);
        }
        let mut ready = now;
        for (i, chunk) in self.split_stream(bytes).into_iter().enumerate() {
            if chunk > 0 {
                ready = ready.max(self.disks[i].read(now, chunk));
            }
        }
        ready
    }

    /// Sequential byte-stream write of `bytes` posted at `now`
    /// (write-behind per spindle); returns when the caller may proceed,
    /// i.e. when the slowest spindle has absorbed its previous work.
    pub fn write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        if self.disks.len() == 1 {
            return self.disks[0].write(now, bytes);
        }
        let mut proceed = now;
        for (i, chunk) in self.split_stream(bytes).into_iter().enumerate() {
            if chunk > 0 {
                proceed = proceed.max(self.disks[i].write(now, chunk));
            }
        }
        proceed
    }

    /// Read the given `(block, bytes)` run at `now`. Consecutive entries
    /// on the same spindle are charged as one sequential request; groups
    /// on different spindles are charged in parallel. Returns when every
    /// group has been delivered.
    pub fn read_blocks(&mut self, now: SimTime, run: &[(u64, u64)]) -> SimTime {
        let mut ready = now;
        self.for_each_group(run, |disks, disk, bytes| {
            ready = ready.max(disks[disk].read(now, bytes));
        });
        ready
    }

    /// Write the given `(block, bytes)` run at `now` (write-behind), with
    /// the same per-spindle grouping as [`read_blocks`](Self::read_blocks).
    /// Returns when the caller may proceed.
    pub fn write_blocks(&mut self, now: SimTime, run: &[(u64, u64)]) -> SimTime {
        let mut proceed = now;
        self.for_each_group(run, |disks, disk, bytes| {
            proceed = proceed.max(disks[disk].write(now, bytes));
        });
        proceed
    }

    /// Change every spindle's media rate (fault injection degrades the
    /// whole brick uniformly).
    pub fn set_rate(&mut self, rate_bytes_per_sec: f64) {
        for d in &mut self.disks {
            d.set_rate(rate_bytes_per_sec);
        }
    }

    /// When all issued media work on every spindle completes.
    pub fn quiesce_time(&self) -> SimTime {
        self.disks
            .iter()
            .map(|d| d.quiesce_time())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Aggregate transfer counters across all spindles.
    pub fn stats(&self) -> BteStats {
        self.disks
            .iter()
            .fold(BteStats::default(), |acc, d| acc.merged(d.stats()))
    }

    /// Aggregate counters as the legacy report tuple.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        self.stats().as_tuple()
    }

    /// Per-spindle transfer counters, in disk order.
    pub fn per_disk_stats(&self) -> Vec<BteStats> {
        self.disks.iter().map(|d| d.stats()).collect()
    }

    /// Per-spindle media busy time, in disk order.
    pub fn per_disk_busy(&self) -> Vec<SimDuration> {
        self.disks.iter().map(|d| d.total_busy()).collect()
    }

    /// Total media busy time summed over spindles.
    pub fn total_busy(&self) -> SimDuration {
        self.disks
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + d.total_busy())
    }

    /// Mean media utilization series over `[0, horizon]`, averaged across
    /// spindles (an idle spindle drags the array's utilization down, which
    /// is exactly what a load report should show).
    pub fn utilization_series(&self, horizon: SimTime) -> Vec<f64> {
        let per: Vec<Vec<f64>> = self
            .disks
            .iter()
            .map(|d| d.utilization_series(horizon))
            .collect();
        let bins = per.iter().map(|s| s.len()).max().unwrap_or(0);
        let n = self.disks.len() as f64;
        (0..bins)
            .map(|b| per.iter().map(|s| s.get(b).copied().unwrap_or(0.0)).sum::<f64>() / n)
            .collect()
    }

    /// Split a sequential byte stream into per-disk totals: stripe units
    /// round-robin across spindles, the tail unit may be partial.
    fn split_stream(&self, bytes: u64) -> Vec<u64> {
        let d = self.disks.len() as u64;
        let mut per = vec![0u64; self.disks.len()];
        if bytes == 0 {
            return per;
        }
        let units = bytes.div_ceil(self.stripe_bytes);
        let full_cycles = units / d;
        let rem_units = units % d;
        for (i, p) in per.iter_mut().enumerate() {
            *p = full_cycles * self.stripe_bytes
                + if (i as u64) < rem_units { self.stripe_bytes } else { 0 };
        }
        // The last unit is partial unless bytes is a multiple of the unit.
        let slack = units * self.stripe_bytes - bytes;
        per[((units - 1) % d) as usize] -= slack;
        per
    }

    /// Group consecutive `run` entries by spindle and hand each maximal
    /// group (one sequential request on that spindle) to `f`.
    fn for_each_group(&mut self, run: &[(u64, u64)], mut f: impl FnMut(&mut [DiskSim], usize, u64)) {
        let mut i = 0;
        while i < run.len() {
            let disk = self.disk_of(run[i].0);
            let mut bytes = run[i].1;
            let mut j = i + 1;
            while j < run.len() && self.disk_of(run[j].0) == disk {
                bytes += run[j].1;
                j += 1;
            }
            f(&mut self.disks, disk, bytes);
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(rate: f64) -> DiskParams {
        DiskParams {
            rate_bytes_per_sec: rate,
            per_request_overhead: SimDuration::ZERO,
            readahead_window: 0,
        }
    }

    const BIN: SimDuration = SimDuration::from_millis(1);
    const BB: u64 = 1_000; // 1 kB blocks for round numbers

    #[test]
    fn single_disk_delegates_exactly() {
        let mut s = StripedDisk::new(params(1e6), 1, 4, BB, BIN);
        let mut d = DiskSim::new(params(1e6), BIN);
        for step in 0..5 {
            let now = SimTime(step * 1_000_000);
            assert_eq!(s.read(now, 100_000), d.read(now, 100_000));
            assert_eq!(s.write(now, 50_000), d.write(now, 50_000));
        }
        assert_eq!(s.counters(), d.counters());
        assert_eq!(s.quiesce_time(), d.quiesce_time());
    }

    #[test]
    fn placement_round_robins_stripe_units() {
        let s = StripedDisk::new(params(1e6), 4, 4, BB, BIN);
        // Blocks 0..4 on disk 0, 4..8 on disk 1, …, 16..20 wrap to disk 0.
        assert_eq!(s.disk_of(0), 0);
        assert_eq!(s.disk_of(3), 0);
        assert_eq!(s.disk_of(4), 1);
        assert_eq!(s.disk_of(15), 3);
        assert_eq!(s.disk_of(16), 0);
    }

    #[test]
    fn stream_bandwidth_scales_with_disks() {
        // 1 MB at 1 MB/s: one disk takes 1s; four disks take 0.25s.
        // (Stripe unit of one 1 kB block: 1000 units split 250/disk.)
        let mut s1 = StripedDisk::new(params(1e6), 1, 1, BB, BIN);
        let mut s4 = StripedDisk::new(params(1e6), 4, 1, BB, BIN);
        let t1 = s1.read(SimTime::ZERO, 1_000_000);
        let t4 = s4.read(SimTime::ZERO, 1_000_000);
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(t4, SimTime::ZERO + SimDuration::from_millis(250));
    }

    #[test]
    fn stream_split_conserves_bytes() {
        let s = StripedDisk::new(params(1e6), 3, 4, BB, BIN);
        for bytes in [0u64, 1, 3_999, 4_000, 4_001, 12_000, 123_457] {
            let per = s.split_stream(bytes);
            assert_eq!(per.iter().sum::<u64>(), bytes, "bytes={bytes}");
        }
    }

    #[test]
    fn block_runs_group_per_spindle() {
        // Stripe unit 2, 2 disks: blocks 0,1→d0; 2,3→d1; 4,5→d0.
        let mut s = StripedDisk::new(params(1e6), 2, 2, BB, BIN);
        let run: Vec<(u64, u64)> = (0..6).map(|b| (b, BB)).collect();
        let ready = s.write_blocks(SimTime::ZERO, &run);
        // Write-behind: the first group per spindle proceeds immediately,
        // but d0's second group (blocks 4-5) waits for its first (2 kB at
        // 1 MB/s = 2ms) to be absorbed.
        assert_eq!(ready, SimTime::ZERO + SimDuration::from_millis(2));
        let per = s.per_disk_stats();
        // d0 got two groups (blocks 0-1 and 4-5), d1 one group (2-3).
        assert_eq!(per[0].writes, 2);
        assert_eq!(per[1].writes, 1);
        assert_eq!(per[0].bytes_written, 4 * BB);
        assert_eq!(per[1].bytes_written, 2 * BB);
        // Spindles drained in parallel: 4 kB and 2 kB at 1 MB/s.
        assert_eq!(
            s.quiesce_time(),
            SimTime::ZERO + SimDuration::from_millis(4)
        );
    }

    #[test]
    fn set_rate_applies_to_every_spindle() {
        let mut s = StripedDisk::new(params(1e6), 2, 4, BB, BIN);
        s.set_rate(2e6);
        let t = s.read(SimTime::ZERO, 8_000);
        // 4 kB per spindle at 2 MB/s = 2ms, in parallel.
        assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(2));
    }
}
