//! Deterministic job-arrival schedules for multi-tenant simulations.
//!
//! An [`ArrivalSpec`] is the open-arrival counterpart of
//! [`FaultPlan`](crate::fault::FaultPlan): a virtual-time schedule of
//! job submissions, one per `(tenant, kind, at)` triple, that a
//! scheduler harness replays against its admission controller. The
//! spec itself carries no randomness — [`ArrivalSpec::poisson`] bakes
//! a seeded Poisson process into explicit [`SimTime`]s up front, so
//! the same seed reproduces the schedule byte for byte and a
//! multi-tenant run is exactly as replayable as a fault-free one.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// One scheduled job submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Submitting tenant (dense index, harness-defined).
    pub tenant: usize,
    /// Which job template out of the tenant's mix this submission
    /// instantiates (index into the harness's job-kind table).
    pub kind: usize,
    /// Virtual submission time.
    pub at: SimTime,
}

/// A deterministic schedule of job arrivals for one run.
///
/// Build with the chainable constructors or [`ArrivalSpec::poisson`];
/// [`sorted_events`](ArrivalSpec::sorted_events) interleaves the
/// per-tenant streams into firing order (stable: ties keep insertion
/// order, which is tenant-major for generated specs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrivalSpec {
    events: Vec<ArrivalEvent>,
}

impl ArrivalSpec {
    /// An empty schedule (no jobs ever arrive).
    pub fn new() -> ArrivalSpec {
        ArrivalSpec::default()
    }

    /// Add one submission.
    pub fn job(mut self, tenant: usize, kind: usize, at: SimTime) -> ArrivalSpec {
        self.events.push(ArrivalEvent { tenant, kind, at });
        self
    }

    /// No arrivals scheduled?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The arrivals in firing order (stable: ties keep insertion order,
    /// so equal-time submissions from different tenants resolve in
    /// tenant-major order for generated specs).
    pub fn sorted_events(&self) -> Vec<ArrivalEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// An open Poisson arrival stream per tenant: tenant `t` submits
    /// jobs with exponentially distributed inter-arrival times (mean
    /// `mean_interarrival`) until `horizon`, each submission drawing a
    /// job kind from the weighted `mix` (kind `k` with probability
    /// `mix[k] / Σ mix`).
    ///
    /// Each tenant draws from its own [`DetRng`] stream
    /// (`DetRng::stream(seed, tenant)`), so the schedule is a pure
    /// function of `(seed, tenant)`: the same seed reproduces the
    /// schedule exactly, and adding tenants leaves existing tenants'
    /// streams untouched. Events are emitted tenant-major;
    /// [`sorted_events`](ArrivalSpec::sorted_events) interleaves them.
    pub fn poisson(
        seed: u64,
        tenants: usize,
        mean_interarrival: SimDuration,
        horizon: SimDuration,
        mix: &[u64],
    ) -> ArrivalSpec {
        assert!(
            mean_interarrival.as_nanos() > 0,
            "mean inter-arrival must be positive"
        );
        assert!(!mix.is_empty(), "job mix must name at least one kind");
        let total: u64 = mix.iter().sum();
        assert!(total > 0, "job mix weights must not all be zero");
        let rate = 1.0 / (mean_interarrival.as_nanos() as f64);
        let end = SimTime::ZERO + horizon;
        let mut spec = ArrivalSpec::new();
        for tenant in 0..tenants {
            let mut rng = DetRng::stream(seed, tenant as u64);
            let mut t = SimTime::ZERO;
            loop {
                // Draws are in nanoseconds (rate = 1/mean-ns); round up
                // so two submissions never share an instant by rounding.
                let gap = SimDuration::from_nanos(rng.gen_exp(rate).ceil() as u64)
                    .max(SimDuration::from_nanos(1));
                t += gap;
                if t >= end {
                    break;
                }
                let mut pick = rng.gen_range(total);
                let mut kind = 0usize;
                for (k, &w) in mix.iter().enumerate() {
                    if pick < w {
                        kind = k;
                        break;
                    }
                    pick -= w;
                }
                spec = spec.job(tenant, kind, t);
            }
        }
        spec
    }

    /// Render the schedule as text, one `job <tenant> <kind> <at_ns>`
    /// line per submission in insertion order.
    pub fn to_trace(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("job {} {} {}\n", e.tenant, e.kind, e.at.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        let mk = || {
            ArrivalSpec::poisson(
                0xA11,
                3,
                SimDuration::from_millis(5),
                SimDuration::from_millis(100),
                &[3, 1],
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert_eq!(a.to_trace(), b.to_trace());
        assert!(!a.is_empty());
    }

    #[test]
    fn adding_tenants_preserves_existing_streams() {
        let small = ArrivalSpec::poisson(
            7,
            2,
            SimDuration::from_millis(2),
            SimDuration::from_millis(50),
            &[1],
        );
        let big = ArrivalSpec::poisson(
            7,
            4,
            SimDuration::from_millis(2),
            SimDuration::from_millis(50),
            &[1],
        );
        let first_two = |s: &ArrivalSpec| -> Vec<ArrivalEvent> {
            s.sorted_events()
                .into_iter()
                .filter(|e| e.tenant < 2)
                .collect()
        };
        assert_eq!(first_two(&small), first_two(&big));
    }

    #[test]
    fn trace_renders_insertion_order() {
        let spec = ArrivalSpec::new()
            .job(0, 1, SimTime(500))
            .job(2, 0, SimTime(100));
        assert_eq!(spec.to_trace(), "job 0 1 500\njob 2 0 100\n");
        // Sorted order interleaves by time.
        let sorted = spec.sorted_events();
        assert_eq!(sorted[0].at, SimTime(100));
        assert_eq!(sorted[1].tenant, 0);
    }

    #[test]
    fn mix_weights_cover_all_kinds() {
        let spec = ArrivalSpec::poisson(
            99,
            1,
            SimDuration::from_micros(50),
            SimDuration::from_millis(20),
            &[1, 1, 1],
        );
        let mut seen = [false; 3];
        for e in spec.sorted_events() {
            seen[e.kind] = true;
        }
        assert!(seen.iter().all(|&s| s), "every kind in the mix appears");
    }
}
