//! Frozen scheduler golden: one ~200-job weighted-fair run at the
//! benchmark's `sched_mix` geometry, aware and naive. The planner, the
//! splitter selection, the residual ledger and the merged-graph build
//! all sit under `run_scheduled`; a wall-clock change to any of them
//! must leave every byte of the outcome where it was.

use lmas_emulator::ClusterConfig;
use lmas_sched::{run_scheduled, ArrivalSpec, Policy, SchedSpec};
use lmas_sim::SimDuration;
use lmas_sort::DsmConfig;

/// FNV-1a with the published FNV-64 prime, not `lmas_sim::fnv1a`'s
/// multiplier: the pins below were recorded with this one.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn outcome_fnv(aware: bool) -> (usize, u64) {
    let cluster = ClusterConfig::era_2002(4, 4, 2.0);
    let dsm = DsmConfig::new(2, 256, 4, 64);
    // Three tenants at about 0.9 offered utilization for these kinds.
    let arrivals = ArrivalSpec::poisson(
        0x601D_5EED,
        3,
        SimDuration::from_micros(2_500),
        SimDuration::from_micros(170_000),
        &[3, 1],
    );
    let spec = SchedSpec::new(arrivals, vec![2_500, 10_000])
        .with_policy(Policy::WeightedFair)
        .with_quota(2)
        .with_queue_cap(64)
        .with_load_limit(1.2)
        .with_aware(aware)
        .with_seed(0x601D_5EED);
    let out = run_scheduled(&cluster, &dsm, &spec).expect("scheduled run completes");
    (out.jobs.len(), fnv1a(out.to_json().as_bytes()))
}

#[test]
fn weighted_fair_outcome_is_frozen() {
    // Recorded at the commit before the table-driven planner landed.
    const JOBS: usize = 213;
    const AWARE_FNV: u64 = 0xd554_5b90_b5a3_2bd5;
    const NAIVE_FNV: u64 = 0x73ad_aee7_623b_ee7d;
    let (jobs, aware) = outcome_fnv(true);
    let (naive_jobs, naive) = outcome_fnv(false);
    assert_eq!(
        (jobs, naive_jobs, aware, naive),
        (JOBS, JOBS, AWARE_FNV, NAIVE_FNV),
        "scheduler outcome moved: jobs {jobs}, aware {aware:#018x}, naive {naive:#018x}"
    );
}
