//! Model-driven adaptation: choosing functor parameters to balance load.
//!
//! Section 3.3: "it is often possible to configure functors to adjust the
//! balance of computation load across the phases of an application …
//! the fan-in of merge functors and the fan-out of distribution functors
//! may vary to adjust the balance of load between sort pipeline phases
//! executing on ASUs and hosts." This is that configurator: closed-form
//! pipeline-phase rates over the [`ClusterShape`] for records of a
//! given size, and the pickers choosing the α and γ₁·γ₂ that maximize
//! them. Figure 9's *adaptive* series is [`ClusterShape::pick_alpha`]
//! at each cluster size.

use crate::model::ClusterShape;
use lmas_core::cost::{log2_ceil, Work};

impl ClusterShape {
    /// Records/sec a CPU pool of total relative speed `aggregate_speed`
    /// sustains when every record passing a functor pays `compares`
    /// plus fixed handling: one buffer move and a touch of all its
    /// `record_size` bytes.
    fn cpu_rate(&self, compares: u64, record_size: usize, aggregate_speed: f64) -> f64 {
        let per_record =
            Work::compares(compares) + Work::moves(1) + Work::bytes(record_size as u64);
        let t = self.cost.charge(per_record, 1.0).as_secs_f64();
        if t == 0.0 {
            f64::INFINITY
        } else {
            aggregate_speed / t
        }
    }

    /// Total relative CPU speed of the D ASUs.
    fn asu_pool_speed(&self) -> f64 {
        self.asus as f64 / self.cpu_ratio_c
    }

    /// Records/sec the D ASU disks stream.
    fn disk_records_rate(&self, record_size: usize) -> f64 {
        self.asus as f64 * self.asu_disk_rate / record_size as f64
    }

    /// Records/sec the host links carry when every record crosses them
    /// twice (to the host and back); each host has one link.
    fn link_records_rate(&self, record_size: usize) -> f64 {
        self.hosts as f64 * self.link_rate / (2.0 * record_size as f64)
    }

    /// Records/sec of DSM-Sort pass 1 (run formation) with the distribute
    /// functor on the ASUs and block sort on the hosts: the minimum of the
    /// ASU read rate, ASU distribute rate, host sort rate, link rate, and
    /// ASU write-back rate.
    pub fn pass1_rate_active(&self, alpha: u64, beta: u64, record_size: usize) -> f64 {
        let read = self.disk_records_rate(record_size);
        let write = self.disk_records_rate(record_size);
        let distribute = self.cpu_rate(log2_ceil(alpha), record_size, self.asu_pool_speed());
        let sort = self.cpu_rate(log2_ceil(beta), record_size, self.hosts as f64);
        let link = self.link_records_rate(record_size);
        read.min(write).min(distribute).min(sort).min(link)
    }

    /// Records/sec of pass 1 on conventional (passive) storage: the ASUs
    /// only stream raw blocks; the hosts run a *fused* distribute+sort
    /// (one streaming pass paying `log α + log β` compares but a single
    /// per-record handling charge, as a real single-host sort would).
    pub fn pass1_rate_baseline(&self, alpha: u64, beta: u64, record_size: usize) -> f64 {
        let read = self.disk_records_rate(record_size);
        let write = self.disk_records_rate(record_size);
        let host_compares = log2_ceil(alpha) + log2_ceil(beta);
        let host = self.cpu_rate(host_compares, record_size, self.hosts as f64);
        let link = self.link_records_rate(record_size);
        read.min(write).min(host).min(link)
    }

    /// Predicted pass-1 speedup of the active configuration over the
    /// passive baseline at the same (α, β).
    pub fn predicted_speedup(&self, alpha: u64, beta: u64, record_size: usize) -> f64 {
        self.pass1_rate_active(alpha, beta, record_size)
            / self.pass1_rate_baseline(alpha, beta, record_size)
    }

    /// Choose α among `candidates` maximizing predicted active pass-1
    /// throughput. Ties go to the **larger** α: once surplus ASU capacity
    /// absorbs the distribute for free, a higher distribute order shrinks
    /// the bucket sizes and with them the downstream merge fan-in
    /// (`αβγ = n`), reducing second-pass work at no first-pass cost.
    pub fn pick_alpha(&self, candidates: &[u64], beta: u64, record_size: usize) -> u64 {
        assert!(!candidates.is_empty(), "need candidate α values");
        let mut best = candidates[0];
        let mut best_rate = f64::NEG_INFINITY;
        for &a in candidates {
            let r = self.pass1_rate_active(a, beta, record_size);
            let better = r > best_rate * (1.0 + 1e-9);
            let tied = !better && r > best_rate * (1.0 - 1e-9);
            if better || (tied && a > best) {
                best = a;
                best_rate = best_rate.max(r);
            }
        }
        best
    }

    /// Records/sec of the merge pass with γ₁-way merges on ASUs feeding a
    /// γ₂-way merge on hosts.
    pub fn merge_rate(&self, gamma1: u64, gamma2: u64, record_size: usize) -> f64 {
        let read = self.disk_records_rate(record_size);
        let asu = self.cpu_rate(log2_ceil(gamma1), record_size, self.asu_pool_speed());
        let host = self.cpu_rate(log2_ceil(gamma2), record_size, self.hosts as f64);
        let link = self.link_records_rate(record_size);
        read.min(asu).min(host).min(link)
    }

    /// Choose the merge split (γ₁, γ₂) with γ₁·γ₂ ≥ γ maximizing merge
    /// throughput, subject to `max_gamma1`: "the ASU buffer space
    /// restricts γ" (Section 4.3) — an ASU can hold at most `max_gamma1`
    /// run buffers. γ₁ candidates are powers of two.
    pub fn pick_gamma_split_bounded(
        &self,
        gamma: u64,
        max_gamma1: u64,
        record_size: usize,
    ) -> (u64, u64) {
        assert!(gamma >= 1, "γ must be at least 1");
        assert!(max_gamma1 >= 1, "ASU must buffer at least one run");
        if gamma == 1 {
            return (1, 1);
        }
        let mut best = (1u64, gamma);
        let mut best_rate = f64::NEG_INFINITY;
        let mut g1 = 1u64;
        while g1 <= gamma.min(max_gamma1) {
            let g2 = gamma.div_ceil(g1);
            let r = self.merge_rate(g1, g2, record_size);
            if r > best_rate + 1e-9 {
                best = (g1, g2);
                best_rate = r;
            }
            g1 *= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REC: usize = 128;

    fn model(hosts: usize, asus: usize, c: f64) -> ClusterShape {
        ClusterShape::era_2002(hosts, asus, c).with_asu_disk_rate(25.0e6)
    }

    #[test]
    fn few_asus_prefer_small_alpha() {
        // With 2 ASUs at 1/8 speed the distribute binds for large α:
        // adaptation must back off from the big orders (it may keep a
        // moderate α that the ASUs absorb behind the disk rate for free).
        let m = model(1, 2, 8.0);
        let a = m.pick_alpha(&[1, 4, 16, 64, 256], 1 << 13, REC);
        assert!(a < 64, "picked α={a}");
        // And the rate at the pick is no worse than at α=1.
        let r_pick = m.pass1_rate_active(a, 1 << 13, REC);
        let r_one = m.pass1_rate_active(1, 1 << 13, REC);
        assert!(r_pick >= r_one * (1.0 - 1e-9));
    }

    #[test]
    fn many_asus_prefer_large_alpha() {
        // With 64 ASUs the host sort saturates first; shifting work into
        // the distribute (large α) costs the ASUs nothing they notice.
        let m = model(1, 64, 8.0);
        let a = m.pick_alpha(&[1, 4, 16, 64, 256], 1 << 13, REC);
        assert_eq!(a, 256);
    }

    #[test]
    fn speedup_below_one_when_asus_bottleneck() {
        let m = model(1, 2, 8.0);
        assert!(m.predicted_speedup(256, 1 << 13, REC) < 1.0);
    }

    #[test]
    fn speedup_above_one_with_many_asus() {
        let m = model(1, 64, 8.0);
        let s = m.predicted_speedup(256, 1 << 13, REC);
        assert!(s > 1.3, "predicted speedup {s}");
    }

    #[test]
    fn speedup_monotone_in_asus_for_fixed_alpha() {
        let beta = 1 << 13;
        let mut prev = 0.0;
        for d in [2, 4, 8, 16, 32, 64] {
            let s = model(1, d, 8.0).predicted_speedup(64, beta, REC);
            assert!(s >= prev - 1e-9, "speedup should not decline with D");
            prev = s;
        }
    }

    #[test]
    fn c4_beats_c8_at_same_geometry() {
        // Pick a point where the ASU distribute binds (few ASUs, big α):
        // halving c doubles the distribute rate and the speedup.
        let beta = 1 << 13;
        let s4 = model(1, 2, 4.0).predicted_speedup(256, beta, REC);
        let s8 = model(1, 2, 8.0).predicted_speedup(256, beta, REC);
        assert!(s4 > s8, "faster ASUs must help: c4={s4} c8={s8}");
    }

    #[test]
    fn gamma_split_respects_asu_buffer_bound() {
        let m = model(1, 16, 8.0);
        let (g1, g2) = m.pick_gamma_split_bounded(64, 8, REC);
        assert!(g1 * g2 >= 64);
        assert!(g1 <= 8, "ASU buffer bound violated: γ1={g1}");
    }

    #[test]
    fn gamma_split_beats_host_only_merge() {
        // Splitting the merge across ASUs and host should never be slower
        // than doing all fan-in on the host.
        let m = model(1, 16, 8.0);
        let (g1, g2) = m.pick_gamma_split_bounded(64, 8, REC);
        assert!(m.merge_rate(g1, g2, REC) >= m.merge_rate(1, 64, REC) * (1.0 - 1e-9));
    }

    #[test]
    fn gamma_split_degenerate() {
        let m = model(1, 4, 8.0);
        assert_eq!(m.pick_gamma_split_bounded(1, 64, REC), (1, 1));
        let (g1, g2) = m.pick_gamma_split_bounded(2, 64, REC);
        assert!(g1 * g2 >= 2);
    }

    #[test]
    fn baseline_unaffected_by_asu_count_once_host_bound() {
        let beta = 1 << 13;
        let r16 = model(1, 16, 8.0).pass1_rate_baseline(64, beta, REC);
        let r64 = model(1, 64, 8.0).pass1_rate_baseline(64, beta, REC);
        assert!((r16 - r64).abs() < 1e-6, "host-bound baseline rate");
    }
}
