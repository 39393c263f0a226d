//! Scheduler integration tests: golden byte-identity of a lone job
//! against the direct pass-1 path, whole-pipeline determinism, and
//! property tests over the admission gate (quota safety,
//! starvation-freedom).

use lmas_core::{generate_rec8, KeyDist, Rec8};
use lmas_emulator::{ClusterConfig, GateDecision, SchedGate};
use lmas_sched::{
    run_scheduled, ArrivalSpec, GateConfig, JobShape, Policy, PolicyGate, SchedError,
    SchedRunError, SchedSpec,
};
use lmas_sim::{SimDuration, SimTime};
use lmas_sort::{choose_splitters, run_pass1, split_across_asus, DsmConfig, LoadMode};
use proptest::prelude::*;

fn cluster() -> ClusterConfig {
    ClusterConfig::era_2002(2, 4, 8.0)
}

fn dsm() -> DsmConfig {
    DsmConfig::new(4, 256, 4, 64)
}

/// The data seed `run_scheduled` derives for job index `j`.
fn job_seed(spec_seed: u64, j: u64) -> u64 {
    spec_seed ^ ((j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A lone job submitted at t = 0 through the whole scheduler pipeline
/// is byte-identical to the direct `run_pass1` on the same data: same
/// virtual makespan, same record count — the scheduling layer adds no
/// virtual time of its own.
#[test]
fn single_job_through_scheduler_matches_direct_pass1() {
    let cluster = cluster();
    let dsm = dsm();
    let n = 5_000u64;
    let seed = 0xD15C_0001u64;

    let spec = SchedSpec::new(ArrivalSpec::new().job(0, 0, SimTime::ZERO), vec![n])
        .with_seed(seed);
    let sched = run_scheduled(&cluster, &dsm, &spec).expect("scheduled run");

    let data = generate_rec8(n, KeyDist::Uniform, job_seed(seed, 0));
    let splitters = choose_splitters(&data, dsm.alpha);
    let per_asu = split_across_asus(&data, cluster.asus);
    let direct =
        run_pass1::<Rec8>(&cluster, per_asu, splitters, &dsm, LoadMode::Static)
            .expect("direct pass 1");

    assert_eq!(sched.jobs.len(), 1);
    let job = &sched.jobs[0];
    assert_eq!(job.dispatched_at, Some(SimTime::ZERO), "dispatched on arrival");
    assert_eq!(job.queue_wait, SimDuration::ZERO);
    assert_eq!(
        sched.makespan, direct.report.makespan,
        "scheduler adds no virtual time"
    );
    assert_eq!(sched.records_processed, direct.report.records_processed);
    // Completion is the last sink flush; the makespan additionally
    // covers the post-flush disk quiesce, so latency ∈ (0, makespan].
    let lat = job.latency().expect("completed");
    assert!(lat > SimDuration::ZERO && lat <= direct.report.makespan);
    assert!(sched.rejections.is_empty());
}

/// The whole pipeline — arrivals, planning, gating, emulation, JSON —
/// is a pure function of its spec: run twice, byte-identical.
#[test]
fn same_spec_runs_byte_identical() {
    let cluster = cluster();
    let dsm = dsm();
    let arrivals = ArrivalSpec::poisson(
        0xA2215,
        2,
        SimDuration::from_millis(40),
        SimDuration::from_millis(160),
        &[2, 1],
    );
    let mk = |aware: bool| {
        let spec = SchedSpec::new(arrivals.clone(), vec![3_000, 6_000])
            .with_policy(Policy::WeightedFair)
            .with_weights(vec![2, 1])
            .with_quota(2)
            .with_aware(aware);
        run_scheduled(&cluster, &dsm, &spec).expect("run")
    };
    for aware in [false, true] {
        let a = mk(aware);
        let b = mk(aware);
        assert_eq!(a.to_json(), b.to_json(), "aware={aware}");
        assert_eq!(a.events, b.events, "aware={aware}");
    }
}

/// Under contention, queued jobs wait (positive queue time) and every
/// admitted job still completes; rejections, when they happen, carry
/// the typed reason.
#[test]
fn contended_run_queues_and_completes() {
    let cluster = cluster();
    let dsm = dsm();
    // Four near-simultaneous jobs from two tenants, quota 1, tiny queue.
    let arrivals = ArrivalSpec::new()
        .job(0, 0, SimTime::ZERO)
        .job(1, 0, SimTime(1_000))
        .job(0, 0, SimTime(2_000))
        .job(1, 0, SimTime(3_000))
        .job(0, 0, SimTime(4_000));
    let spec = SchedSpec::new(arrivals, vec![3_000])
        .with_quota(1)
        .with_queue_cap(1)
        .with_seed(7);
    let out = run_scheduled(&cluster, &dsm, &spec).expect("run");

    let completed = out.completed();
    let rejected = out.jobs.iter().filter(|j| j.rejected).count();
    assert_eq!(completed + rejected, out.jobs.len(), "no job is lost");
    assert_eq!(rejected, out.rejections.len());
    // Tenant 0's third job finds one running + one queued: rejected.
    assert!(rejected >= 1, "queue cap 1 must reject the burst");
    assert!(matches!(
        out.rejections[0],
        SchedError::QuotaExceeded { tenant: 0, .. }
    ));
    // Somebody waited.
    assert!(
        out.jobs.iter().any(|j| j.queue_wait > SimDuration::ZERO),
        "quota 1 with burst arrivals must queue someone"
    );
    // Completions are serialized per tenant (quota 1): a tenant's
    // second dispatch never precedes its first completion.
    for t in 0..2 {
        let mine: Vec<_> = out.jobs.iter().filter(|j| j.tenant == t && !j.rejected).collect();
        for w in mine.windows(2) {
            assert!(w[1].dispatched_at.unwrap() >= w[0].completed_at.unwrap());
        }
    }
}

/// Interference-aware placement runs end to end and spreads sorters:
/// with another job predicted to be mid-flight, the planner must not
/// produce a worse p99 than it predicts for the naive stack (full
/// comparison is bench F-MT's job; this is the smoke gate).
#[test]
fn aware_placement_completes_under_contention() {
    let cluster = cluster();
    let dsm = dsm();
    let arrivals = ArrivalSpec::new()
        .job(0, 0, SimTime::ZERO)
        .job(1, 0, SimTime(10_000))
        .job(0, 0, SimTime(20_000));
    let spec = SchedSpec::new(arrivals, vec![4_000])
        .with_quota(2)
        .with_aware(true)
        .with_seed(11);
    let out = run_scheduled(&cluster, &dsm, &spec).expect("aware run");
    assert_eq!(out.completed(), 3, "all aware jobs complete");
    assert!(out.rejections.is_empty());
    assert!(out.predicted_ns.iter().all(|&c| c > 0));
}

/// A spec whose arrivals cannot be matched to job kinds is refused with
/// a typed error naming the mismatch, aware or not, before any job is
/// built.
#[test]
fn unmatched_job_kinds_are_typed_errors() {
    let arrivals = ArrivalSpec::new()
        .job(0, 0, SimTime::ZERO)
        .job(1, 2, SimTime(1_000));
    for aware in [false, true] {
        let spec = SchedSpec::new(arrivals.clone(), vec![2_000, 4_000]).with_aware(aware);
        let err = run_scheduled(&cluster(), &dsm(), &spec).expect_err("kind 2 of 2");
        assert!(
            matches!(err, SchedRunError::UnknownKind { job: 1, kind: 2, kinds: 2 }),
            "{err}"
        );
        assert!(err.to_string().contains("kind 2"), "{err}");
    }
    // No kinds at all: refused even when nothing would arrive.
    for arrivals in [arrivals, ArrivalSpec::new()] {
        let spec = SchedSpec::new(arrivals, Vec::new());
        let err = run_scheduled(&cluster(), &dsm(), &spec).expect_err("no kinds");
        assert!(matches!(err, SchedRunError::NoJobKinds), "{err}");
    }
}

/// Drive a standalone gate through an arrival/completion schedule,
/// checking the quota invariant after every transition. Returns
/// (dispatched, rejected) job sets.
fn drive_gate(
    policy: Policy,
    tenants: usize,
    quota: usize,
    queue_cap: usize,
    shapes: Vec<JobShape>,
    completion_picks: &[usize],
) -> (Vec<usize>, usize) {
    let n = shapes.len();
    let tenant_of: Vec<usize> = shapes.iter().map(|s| s.tenant).collect();
    let (mut gate, log) = PolicyGate::new(
        GateConfig {
            policy,
            tenants,
            quota,
            queue_cap,
            load_limit: 1.0,
            weights: vec![1; tenants],
        },
        shapes,
    );
    let mut running: Vec<usize> = Vec::new();
    let mut dispatched: Vec<usize> = Vec::new();
    let mut counts = vec![0usize; tenants];
    let check = |running: &[usize], counts: &mut Vec<usize>| {
        counts.iter_mut().for_each(|c| *c = 0);
        for &j in running {
            counts[tenant_of[j]] += 1;
            assert!(
                counts[tenant_of[j]] <= quota,
                "tenant {} exceeds quota {quota}",
                tenant_of[j]
            );
        }
    };
    for j in 0..n {
        if gate.on_arrival(j, SimTime(j as u64)) == GateDecision::Dispatch {
            running.push(j);
            dispatched.push(j);
            check(&running, &mut counts);
        }
    }
    let mut pick_i = 0usize;
    while !running.is_empty() {
        let idx = completion_picks.get(pick_i).copied().unwrap_or(0) % running.len();
        pick_i += 1;
        let done = running.swap_remove(idx);
        for j in gate.on_completion(done, SimTime(1_000 + pick_i as u64)) {
            running.push(j);
            dispatched.push(j);
            check(&running, &mut counts);
        }
    }
    let rejected = log.borrow().len();
    (dispatched, rejected)
}

proptest! {
    /// Admission never exceeds the per-tenant quota, under any policy,
    /// any job mix, and any completion order.
    #[test]
    fn quota_is_never_exceeded(
        tenants in 1usize..4,
        quota in 1usize..3,
        queue_cap in 0usize..4,
        policy_ix in 0u8..3,
        job_draws in prop::collection::vec((0usize..4, 1u64..10_000_000), 1..24),
        picks in prop::collection::vec(0usize..64, 64..65),
    ) {
        let policy = [Policy::Fcfs, Policy::Spjf, Policy::WeightedFair][policy_ix as usize];
        let shapes: Vec<JobShape> = job_draws
            .iter()
            .map(|&(t, cost_ns)| JobShape {
                tenant: t % tenants,
                cost_ns,
                cpu_share: vec![0.2],
            })
            .collect();
        let n = shapes.len();
        // drive_gate asserts the invariant after every transition.
        let (dispatched, rejected) =
            drive_gate(policy, tenants, quota, queue_cap, shapes, &picks);
        prop_assert_eq!(dispatched.len() + rejected, n, "every job dispatches or rejects");
    }

    /// Weighted-fair is starvation-free: whatever the weights and
    /// backlog, every admitted job is eventually dispatched once
    /// completions keep coming.
    #[test]
    fn weighted_fair_starves_no_admitted_job(
        tenants in 1usize..4,
        job_draws in prop::collection::vec((0usize..4, 1u64..10_000_000), 1..24),
        picks in prop::collection::vec(0usize..64, 64..65),
    ) {
        let shapes: Vec<JobShape> = job_draws
            .iter()
            .map(|&(t, cost_ns)| JobShape {
                tenant: t % tenants,
                cost_ns,
                cpu_share: vec![0.2],
            })
            .collect();
        let n = shapes.len();
        let (dispatched, rejected) = drive_gate(
            Policy::WeightedFair,
            tenants,
            1,
            n, // queue deep enough to admit everything
            shapes,
            &picks,
        );
        prop_assert_eq!(rejected, 0, "deep queues admit everything");
        let mut seen = dispatched.clone();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>(), "every job dispatched");
    }
}
