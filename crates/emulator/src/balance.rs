//! Feedback-driven runtime load balancing.
//!
//! The planner (`lmas-plan`) fixes placement and replication *offline*
//! from declared costs; this module closes the loop *online*. Watched
//! instances sample their own queue depth and their node's CPU backlog
//! on a virtual-time grid and report to a balancer actor inside the
//! emulated cluster, which — when the previous window's snapshot shows
//! an imbalance beyond a deadband — re-weights the replica
//! [`Router`](lmas_core::Router) through its
//! [`pick_routed`](lmas_core::Router::pick_routed) weight channel:
//! weights proportional to inverse backlog, floored at `min_weight` so
//! no live replica is ever starved outright. Down replicas stay the
//! fault layer's business: weights *compose* with the detected
//! [`UpMask`](lmas_core::UpMask), they do not replace it.
//!
//! Everything here is deterministic: sampling happens at virtual
//! instants, the weight function is a pure function of the samples, and
//! until the first reweight fires the routers see an empty weight slice
//! and behave byte-identically to an unbalanced run.

use lmas_sim::SimDuration;

/// Configuration of the runtime balancer. Disabled by default
/// ([`BalanceSpec::disabled`], period zero); enable per run with
/// [`ClusterConfig::with_balancer`](crate::ClusterConfig::with_balancer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceSpec {
    /// Sampling period in virtual time. Zero disables the balancer.
    pub period: SimDuration,
    /// Queue-depth spread (records, max − min across replicas) at or
    /// below which the balancer leaves weights alone. A generous
    /// deadband keeps a well-balanced run literally untouched — the
    /// weight channel never activates and routing draws are
    /// byte-identical to a balancer-free run.
    pub deadband: u64,
    /// CPU-backlog spread (max − min across replica nodes) at or below
    /// which the balancer leaves weights alone. Sized to several packet
    /// service times so ordinary arrival jitter between symmetric
    /// replicas never trips it.
    pub cpu_deadband: SimDuration,
    /// Weight floor for live replicas, in (0, 1]. Keeps every replica
    /// reachable so a transiently slow node can recover its share.
    pub min_weight: f64,
}

impl BalanceSpec {
    /// Balancer off (zero period). The runtime spawns no actor and the
    /// run is byte-identical to one built before this module existed.
    pub const fn disabled() -> BalanceSpec {
        BalanceSpec {
            period: SimDuration::ZERO,
            deadband: 0,
            cpu_deadband: SimDuration::ZERO,
            min_weight: 0.0,
        }
    }

    /// Balance every `period` with defaults sized for packetized
    /// workloads: a two-packet (2×1024 record) queue deadband, a 20 ms
    /// CPU-backlog deadband, and a 5% weight floor.
    pub const fn every(period: SimDuration) -> BalanceSpec {
        BalanceSpec {
            period,
            deadband: 2048,
            cpu_deadband: SimDuration::from_millis(20),
            min_weight: 0.05,
        }
    }

    /// This spec with the given queue-depth deadband (records).
    pub const fn with_deadband(mut self, records: u64) -> BalanceSpec {
        self.deadband = records;
        self
    }

    /// This spec with the given CPU-backlog deadband.
    pub const fn with_cpu_deadband(mut self, spread: SimDuration) -> BalanceSpec {
        self.cpu_deadband = spread;
        self
    }

    /// Whether the balancer runs at all.
    pub fn is_active(&self) -> bool {
        self.period.as_nanos() > 0
    }
}

/// Minimum CPU-backlog spread (ns) that can ever trigger a reweight,
/// whatever the configured deadband; filters sub-microsecond
/// scheduling jitter.
const MIN_CPU_BACKLOG_NS: u64 = 1_000;

/// Compute new replica weights from observed backlog, or `None` when
/// the replicas are balanced within the deadbands (weights unchanged —
/// and if never changed, routing stays byte-identical to an unbalanced
/// run).
///
/// `depths[i]` is the queued records at replica `i`; `cpu_backlog_ns[i]`
/// is how far the replica's *node* CPU is committed past the sampling
/// instant. Each signal is normalized by its max across replicas, the
/// two are summed into a load in `[0, 2]`, and the weight is the
/// inverse `1 / (1 + load)` floored at `min_weight` and rescaled so the
/// least-loaded replica has weight 1.
pub fn reweight(
    depths: &[u64],
    cpu_backlog_ns: &[u64],
    deadband: u64,
    cpu_deadband_ns: u64,
    min_weight: f64,
) -> Option<Vec<f64>> {
    let n = depths.len();
    debug_assert_eq!(n, cpu_backlog_ns.len());
    if n < 2 {
        return None;
    }
    let (dmin, dmax) = min_max(depths);
    let (bmin, bmax) = min_max(cpu_backlog_ns);
    let depth_skew = dmax - dmin > deadband;
    let cpu_skew = bmax - bmin > cpu_deadband_ns.max(MIN_CPU_BACKLOG_NS);
    if !depth_skew && !cpu_skew {
        return None;
    }
    let load = |i: usize| {
        let d = if dmax > 0 { depths[i] as f64 / dmax as f64 } else { 0.0 };
        let b = if bmax > 0 {
            cpu_backlog_ns[i] as f64 / bmax as f64
        } else {
            0.0
        };
        d + b
    };
    let mut w: Vec<f64> = (0..n)
        .map(|i| (1.0 / (1.0 + load(i))).max(min_weight))
        .collect();
    // Rescale so the least-loaded replica carries full weight; the
    // floor only rises under the division (top ≤ 1), so it still holds.
    let top = w.iter().cloned().fold(f64::MIN, f64::max);
    if top > 0.0 {
        for x in &mut w {
            *x /= top;
        }
    }
    Some(w)
}

fn min_max(xs: &[u64]) -> (u64, u64) {
    xs.iter()
        .fold((u64::MAX, 0), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spec_is_inert() {
        assert!(!BalanceSpec::disabled().is_active());
        assert!(BalanceSpec::every(SimDuration::from_millis(1)).is_active());
    }

    #[test]
    fn balanced_replicas_within_deadband_stay_untouched() {
        assert_eq!(reweight(&[100, 101, 99], &[0, 0, 0], 2048, 0, 0.05), None);
        // Single replica: nothing to weigh.
        assert_eq!(reweight(&[10_000], &[0], 0, 0, 0.05), None);
        // CPU spread inside its own deadband does not trigger either.
        assert_eq!(
            reweight(&[0, 0], &[15_000_000, 0], 0, 20_000_000, 0.05),
            None
        );
    }

    #[test]
    fn deep_queue_gets_down_weighted() {
        let w = reweight(&[8192, 0], &[0, 0], 2048, 0, 0.05).expect("skewed");
        assert!(w[0] < w[1], "backlogged replica must weigh less: {w:?}");
        assert!((w[1] - 1.0).abs() < 1e-12, "least loaded carries weight 1");
        assert!(w[0] >= 0.05, "floor holds");
    }

    #[test]
    fn cpu_backlog_alone_triggers_reweight() {
        let w = reweight(&[0, 0], &[10_000_000, 0], 0, 0, 0.05).expect("cpu skew");
        assert!(w[0] < w[1]);
        // Tiny jitter below the built-in floor does not.
        assert_eq!(reweight(&[0, 0], &[500, 0], 0, 0, 0.05), None);
    }

    #[test]
    fn weights_are_deterministic_and_floored() {
        let a = reweight(&[9000, 100, 0], &[5_000_000, 0, 0], 1024, 0, 0.25).unwrap();
        let b = reweight(&[9000, 100, 0], &[5_000_000, 0, 0], 1024, 0, 0.25).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (0.25..=1.0).contains(&x)), "{a:?}");
        // Worst replica (deep queue + cpu backlog) weighs the least.
        assert!(a[0] < a[1] && a[1] <= a[2]);
    }
}
