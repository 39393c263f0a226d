//! Deterministic fault injection for simulations.
//!
//! A [`FaultPlan`] is a virtual-time schedule of fault events — crashes,
//! recoveries, partial degradations, and lossy links — that a simulation
//! harness replays against its actors. The plan itself carries no
//! randomness: every event fires at an explicit [`SimTime`], and any
//! randomized consequences (retry jitter, per-packet drops) draw from
//! [`DetRng`] streams derived from the run's master seed, so a chaos run
//! is exactly as reproducible as a fault-free one.
//!
//! The module also provides [`BackoffPolicy`], a bounded exponential
//! backoff schedule with deterministic jitter, for retrying failed
//! deliveries.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// One scheduled fault. Nodes are identified by a harness-defined dense
/// index (the emulator uses hosts first, then ASUs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Node `node` fails completely at `at`: it stops processing, loses
    /// volatile state, and bounces deliveries until it recovers.
    Crash {
        /// Failed node index.
        node: usize,
        /// Virtual time of the failure.
        at: SimTime,
    },
    /// Node `node` returns to service at `at` with fresh (empty) volatile
    /// state. Durable storage survives the outage.
    Recover {
        /// Recovering node index.
        node: usize,
        /// Virtual time of the recovery.
        at: SimTime,
    },
    /// Node `node` keeps running but with scaled-down resources from `at`
    /// on (graceful degradation, not binary death).
    Degrade {
        /// Degraded node index.
        node: usize,
        /// Virtual time the degradation takes effect.
        at: SimTime,
        /// Remaining fraction of CPU speed, in `(0, 1]`.
        cpu_factor: f64,
        /// Remaining fraction of disk bandwidth, in `(0, 1]`.
        disk_factor: f64,
    },
    /// The directed link `from → to` starts dropping each packet with
    /// probability `drop_prob` from `at` on (0 restores the link).
    LinkLoss {
        /// Sending node index.
        from: usize,
        /// Receiving node index.
        to: usize,
        /// Virtual time the loss rate takes effect.
        at: SimTime,
        /// Per-packet drop probability in `[0, 1]`.
        drop_prob: f64,
    },
}

impl FaultEvent {
    /// The virtual time at which this event fires.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Recover { at, .. }
            | FaultEvent::Degrade { at, .. }
            | FaultEvent::LinkLoss { at, .. } => at,
        }
    }

    /// The node this event primarily concerns (the sender for link loss).
    pub fn node(&self) -> usize {
        match *self {
            FaultEvent::Crash { node, .. }
            | FaultEvent::Recover { node, .. }
            | FaultEvent::Degrade { node, .. } => node,
            FaultEvent::LinkLoss { from, .. } => from,
        }
    }
}

/// A deterministic schedule of fault events for one run.
///
/// Build with the chainable constructors and hand the plan to the
/// harness; events are replayed in time order (ties keep insertion
/// order, so a plan is a total order and two runs of the same plan are
/// bit-identical).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults — the harness should behave exactly as
    /// if no fault layer existed).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a raw event.
    pub fn push(mut self, ev: FaultEvent) -> FaultPlan {
        self.events.push(ev);
        self
    }

    /// Crash `node` at `at`.
    pub fn crash(self, node: usize, at: SimTime) -> FaultPlan {
        self.push(FaultEvent::Crash { node, at })
    }

    /// Recover `node` at `at`.
    pub fn recover(self, node: usize, at: SimTime) -> FaultPlan {
        self.push(FaultEvent::Recover { node, at })
    }

    /// Degrade `node` at `at` to `cpu_factor` CPU and `disk_factor` disk.
    pub fn degrade(self, node: usize, at: SimTime, cpu_factor: f64, disk_factor: f64) -> FaultPlan {
        assert!(
            cpu_factor > 0.0 && cpu_factor <= 1.0,
            "cpu_factor in (0, 1]"
        );
        assert!(
            disk_factor > 0.0 && disk_factor <= 1.0,
            "disk_factor in (0, 1]"
        );
        self.push(FaultEvent::Degrade {
            node,
            at,
            cpu_factor,
            disk_factor,
        })
    }

    /// Make the directed link `from → to` drop packets with probability
    /// `drop_prob` from `at` on.
    pub fn link_loss(self, from: usize, to: usize, at: SimTime, drop_prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob in [0, 1]");
        self.push(FaultEvent::LinkLoss {
            from,
            to,
            at,
            drop_prob,
        })
    }

    /// No events scheduled?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in firing order (stable: ties keep insertion order).
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at());
        evs
    }

    /// A fleet-scale crash/recover schedule: every node in `nodes`
    /// alternates exponentially distributed up-times (mean `mttf`) and
    /// down-times (mean `mttr`) until `horizon`, the classic Poisson
    /// failure model mean-field durability analyses assume.
    ///
    /// Each node draws from its own [`DetRng`] stream
    /// (`DetRng::stream(seed, node)`), so the schedule is a pure function
    /// of `(seed, node)`: the same seed reproduces the plan exactly, and
    /// growing the fleet leaves existing nodes' timelines untouched.
    /// Events are emitted node-major; [`FaultPlan::sorted_events`]
    /// interleaves them into firing order.
    pub fn poisson(
        seed: u64,
        nodes: std::ops::Range<usize>,
        mttf: SimDuration,
        mttr: SimDuration,
        horizon: SimDuration,
    ) -> FaultPlan {
        assert!(mttf.as_nanos() > 0, "mttf must be positive");
        assert!(mttr.as_nanos() > 0, "mttr must be positive");
        let fail_rate = 1.0 / (mttf.as_nanos() as f64);
        let heal_rate = 1.0 / (mttr.as_nanos() as f64);
        let end = SimTime::ZERO + horizon;
        let mut plan = FaultPlan::new();
        for node in nodes {
            let mut rng = DetRng::stream(seed, node as u64);
            let mut t = SimTime::ZERO;
            loop {
                // Draws are in nanoseconds (rate = 1/mean-ns); round up
                // so a dwell is never zero-length.
                let up = SimDuration::from_nanos(rng.gen_exp(fail_rate).ceil() as u64)
                    .max(SimDuration::from_nanos(1));
                t += up;
                if t >= end {
                    break;
                }
                plan = plan.crash(node, t);
                let down = SimDuration::from_nanos(rng.gen_exp(heal_rate).ceil() as u64)
                    .max(SimDuration::from_nanos(1));
                t += down;
                if t >= end {
                    break;
                }
                plan = plan.recover(node, t);
            }
        }
        plan
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Retry `k` (1-based) waits a uniformly jittered duration in
/// `[d/2, d]` where `d = min(base · 2^(k-1), cap)`; after
/// `max_attempts` retries the delivery is declared failed. All jitter
/// comes from the caller's [`DetRng`] stream, so the schedule is a pure
/// function of (seed, stream, attempt sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// First-retry target delay.
    pub base: SimDuration,
    /// Upper bound on any single delay.
    pub cap: SimDuration,
    /// Retries allowed before the delivery fails (0 disables retrying).
    pub max_attempts: u32,
}

impl BackoffPolicy {
    /// A policy retrying `max_attempts` times from `base` up to `cap`.
    pub fn new(base: SimDuration, cap: SimDuration, max_attempts: u32) -> BackoffPolicy {
        assert!(base.as_nanos() > 0, "backoff base must be positive");
        assert!(cap >= base, "backoff cap below base");
        BackoffPolicy {
            base,
            cap,
            max_attempts,
        }
    }

    /// 2002-era defaults: 200µs base, 20ms cap, 8 attempts.
    pub fn default_2002() -> BackoffPolicy {
        BackoffPolicy::new(
            SimDuration::from_micros(200),
            SimDuration::from_millis(20),
            8,
        )
    }

    /// The jittered delay before retry `attempt` (1-based), or `None`
    /// when the attempt budget is exhausted.
    pub fn delay(&self, attempt: u32, rng: &mut DetRng) -> Option<SimDuration> {
        if attempt == 0 || attempt > self.max_attempts {
            return None;
        }
        let shift = (attempt - 1).min(32);
        let target = self
            .base
            .as_nanos()
            .saturating_mul(1u64 << shift)
            .min(self.cap.as_nanos())
            .max(1);
        // Uniform in [target/2, target]: half deterministic floor, half
        // jitter, so retries from co-failing senders decorrelate without
        // ever collapsing to zero delay.
        let half = target / 2;
        let jitter = rng.gen_range(target - half + 1);
        Some(SimDuration::from_nanos(half + jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_stably_by_time() {
        let plan = FaultPlan::new()
            .recover(1, SimTime(50))
            .crash(0, SimTime(10))
            .crash(1, SimTime(10))
            .degrade(2, SimTime(30), 0.5, 0.5);
        let evs = plan.sorted_events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs[0],
            FaultEvent::Crash {
                node: 0,
                at: SimTime(10)
            }
        );
        assert_eq!(
            evs[1],
            FaultEvent::Crash {
                node: 1,
                at: SimTime(10)
            }
        );
        assert_eq!(evs[2].node(), 2);
        assert_eq!(
            evs[3],
            FaultEvent::Recover {
                node: 1,
                at: SimTime(50)
            }
        );
        assert!(FaultPlan::new().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn backoff_is_bounded_exponential_and_deterministic() {
        let p = BackoffPolicy::new(
            SimDuration::from_nanos(1_000),
            SimDuration::from_nanos(8_000),
            5,
        );
        let mut r1 = DetRng::stream(7, 3);
        let mut r2 = DetRng::stream(7, 3);
        let d1: Vec<Option<SimDuration>> = (1..=6).map(|a| p.delay(a, &mut r1)).collect();
        let d2: Vec<Option<SimDuration>> = (1..=6).map(|a| p.delay(a, &mut r2)).collect();
        assert_eq!(d1, d2, "same stream, same schedule");
        // Attempts within budget produce delays in [target/2, target].
        for (i, d) in d1.iter().take(5).enumerate() {
            let target = (1_000u64 << i).min(8_000);
            let d = d.expect("within budget").as_nanos();
            assert!(d >= target / 2 && d <= target, "attempt {}: {d}", i + 1);
        }
        // Budget exhausted.
        assert_eq!(d1[5], None);
        assert_eq!(p.delay(0, &mut r1), None, "attempt numbering is 1-based");
    }

    #[test]
    fn poisson_same_seed_identical() {
        let mttf = SimDuration::from_secs(40);
        let mttr = SimDuration::from_secs(2);
        let horizon = SimDuration::from_secs(600);
        let a = FaultPlan::poisson(9, 0..8, mttf, mttr, horizon);
        let b = FaultPlan::poisson(9, 0..8, mttf, mttr, horizon);
        assert_eq!(a, b, "same seed, same plan");
        assert!(
            !a.is_empty(),
            "600s horizon at 40s MTTF must produce crashes"
        );
        let c = FaultPlan::poisson(10, 0..8, mttf, mttr, horizon);
        assert_ne!(a, c, "different seed, different plan");
        // Per-node timelines are seed-stable under fleet growth: the
        // first 8 nodes of a 16-node plan match the 8-node plan.
        let wide = FaultPlan::poisson(9, 0..16, mttf, mttr, horizon);
        let narrow: Vec<_> = wide
            .sorted_events()
            .into_iter()
            .filter(|e| e.node() < 8)
            .collect();
        assert_eq!(a.sorted_events(), narrow);
    }

    #[test]
    fn poisson_alternates_crash_recover_within_horizon() {
        let plan = FaultPlan::poisson(
            3,
            0..4,
            SimDuration::from_secs(30),
            SimDuration::from_secs(3),
            SimDuration::from_secs(500),
        );
        let end = SimTime::ZERO + SimDuration::from_secs(500);
        let mut up = [true; 4];
        for ev in plan.sorted_events() {
            assert!(ev.at() < end, "event past horizon: {ev:?}");
            match ev {
                FaultEvent::Crash { node, .. } => {
                    assert!(up[node], "crash of an already-down node");
                    up[node] = false;
                }
                FaultEvent::Recover { node, .. } => {
                    assert!(!up[node], "recovery of an up node");
                    up[node] = true;
                }
                other => panic!("poisson emitted {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn link_loss_rejects_bad_probability() {
        let _ = FaultPlan::new().link_loss(0, 1, SimTime::ZERO, 1.5);
    }

    #[test]
    #[should_panic(expected = "cpu_factor")]
    fn degrade_rejects_zero_factor() {
        let _ = FaultPlan::new().degrade(0, SimTime::ZERO, 0.0, 0.5);
    }
}
