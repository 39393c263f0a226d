//! Parallel-kernel golden tests: the partitioned engine
//! (`ClusterConfig::with_threads`) must reproduce the sequential
//! emulator's reports — same virtual times, same dispatch counts, same
//! per-node series, same queue statistics, same emitted records. The
//! only permitted delta is [`EmulationReport::par`], which records how
//! the run was parallelized.
//!
//! Trace equality is two-tier, matching the kernel's ordering contract
//! (see `DESIGN.md`):
//!
//! * **One partition** (any thread count on a one-host cluster): the
//!   dispatch order — and therefore the trace render — is **byte-exact**
//!   against the sequential engine. The first test re-asserts every
//!   frozen constant of `tests/golden.rs` at threads ∈ {2, 4}, so drift
//!   shows up as a hard diff against the pre-parallel pins.
//! * **Multiple partitions**: every state observable is still
//!   byte-exact, and the trace holds the same entries at the same
//!   virtual times; only the relative order of *same-instant* events
//!   that were scheduled concurrently on different partitions may
//!   differ from the sequential interleaving (reproducing it would
//!   serialize the partitions). Multi-partition tests therefore compare
//!   traces under a canonical within-instant ordering, and separately
//!   assert that a given configuration is self-deterministic run-to-run.

mod common;

use common::{
    assert_identical_faulty_sort, assert_same_faulty_sort, assert_same_sort, fnv1a, keys_fnv,
    TraceEq,
};
use lmas_core::{generate_rec128, KeyDist, Record, RoutingPolicy};
use lmas_emulator::{asu_index, BalanceSpec, ClusterConfig, FaultSpec};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use lmas_sort::{run_dsm_sort, run_dsm_sort_faulty, DsmConfig, DsmOutcome, LoadMode};

#[test]
fn pinned_golden_holds_at_every_thread_count() {
    let dsm = DsmConfig::new(4, 256, 4, 64);
    for threads in [2usize, 4] {
        let cluster = ClusterConfig::era_2002(1, 2, 8.0)
            .with_trace(4096)
            .with_threads(threads);
        let data = generate_rec128(5_000, KeyDist::Uniform, 1);
        let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::Static).expect("pinned sort runs");

        // The exact frozen constants of tests/golden.rs.
        assert_eq!(out.pass1.makespan.as_nanos(), 16_725_632);
        assert_eq!(out.pass2.makespan.as_nanos(), 23_332_828);
        assert_eq!(out.total.as_nanos(), 40_058_460);
        assert_eq!(out.pass1.dispatched, 138);
        assert_eq!(out.pass2.dispatched, 126);
        assert_eq!(out.pass1.records_processed, 15_000);
        assert_eq!(out.pass2.records_processed, 15_000);
        let key_fnv = fnv1a(
            out.output
                .iter()
                .flat_map(|p| p.records())
                .flat_map(|r| r.key().to_le_bytes()),
        );
        assert_eq!(key_fnv, 0x5ff3_a122_8ca4_5147);
        assert_eq!(out.pass1.trace.len(), 66);
        assert_eq!(
            fnv1a(out.pass1.trace.render().bytes()),
            0x6805_ad8f_ff08_52f2
        );
        assert_eq!(out.pass2.trace.len(), 52);
        assert_eq!(
            fnv1a(out.pass2.trace.render().bytes()),
            0x5b5f_3e97_4813_e521
        );

        // One host bounds the partition count at one, but the run still
        // goes through the partitioned engine (windows, outbox, merge).
        let par = out
            .pass1
            .par
            .expect("eligible run uses the partitioned engine");
        assert_eq!(par.partitions, 1);
        assert!(par.windows > 0);
        assert_eq!(
            par.remote_messages, 0,
            "single partition sends nothing remotely"
        );
    }
}

#[test]
fn multi_host_parallel_run_matches_sequential() {
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(4_000, KeyDist::Uniform, 3);
    let base = ClusterConfig::era_2002(2, 4, 8.0).with_trace(2048);
    let seq = run_dsm_sort(&base, data.clone(), &dsm, LoadMode::Static).expect("runs");
    assert!(
        seq.pass1.par.is_none(),
        "threads=1 stays on the sequential path"
    );

    let mut prev: Option<DsmOutcome<_>> = None;
    for threads in [2usize, 4] {
        let par = run_dsm_sort(
            &base.with_threads(threads),
            data.clone(),
            &dsm,
            LoadMode::Static,
        )
        .expect("runs");
        assert_same_sort(&seq, &par, TraceEq::Canonical);
        let stats = par.pass1.par.expect("multi-host eligible run parallelizes");
        assert_eq!(stats.partitions, 2, "two hosts bound the partition count");
        assert!(
            stats.remote_messages > 0,
            "host↔host traffic crosses partitions"
        );
        assert!(
            stats.critical_dispatched <= par.pass1.dispatched,
            "critical path is a subset of all dispatches"
        );
        // threads=2 and threads=4 both resolve to two partitions here,
        // so their full outputs — trace order included — must agree.
        if let Some(p) = &prev {
            assert_same_sort(p, &par, TraceEq::Exact);
        }
        prev = Some(par);
    }
}

#[test]
fn parallel_run_is_deterministic_run_to_run() {
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(4_000, KeyDist::Uniform, 3);
    let cfg = ClusterConfig::era_2002(2, 4, 8.0)
        .with_trace(2048)
        .with_threads(4);
    let a = run_dsm_sort(&cfg, data.clone(), &dsm, LoadMode::Static).expect("runs");
    let b = run_dsm_sort(&cfg, data, &dsm, LoadMode::Static).expect("runs");
    assert_same_sort(&a, &b, TraceEq::Exact);
}

#[test]
fn randomized_routing_parallel_matches_sequential() {
    // SimpleRandomization draws from per-sender streams, which the
    // partitioned engine preserves; the draw sequence (and therefore
    // every downstream observable) must be identical.
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let mode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);
    let data = generate_rec128(3_000, KeyDist::Exponential { rate: 4.0 }, 11);
    let base = ClusterConfig::era_2002(2, 3, 8.0).with_trace(1024);
    let seq = run_dsm_sort(&base, data.clone(), &dsm, mode).expect("runs");
    let par = run_dsm_sort(&base.with_threads(4), data, &dsm, mode).expect("runs");
    assert_same_sort(&seq, &par, TraceEq::Canonical);
    assert!(par.pass1.par.is_some());
}

/// Faulted multi-host pinned golden: a fixed crash+recovery plan with
/// a lossy link, run partitioned at `threads ∈ {2, 4}` (both resolve
/// to two partitions on two hosts, so the runs must be byte-identical
/// to each other), frozen as exact constants and cross-checked against
/// the sequential engine under the conserved-equivalence contract.
#[test]
fn pinned_faulted_multi_host_golden() {
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let base = ClusterConfig::era_2002(2, 4, 8.0).with_trace(2048);
    let data = generate_rec128(4_000, KeyDist::Uniform, 3);
    let mode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);

    // The crash lands mid-pass-1 of the fault-free run; the recovery 40
    // virtual ms later exercises detection-cancel and revive fencing.
    let golden = run_dsm_sort(&base, data.clone(), &dsm, mode).expect("fault-free golden runs");
    let t_crash = SimTime(golden.pass1.makespan.0 / 2);
    let plan = FaultPlan::new()
        .crash(asu_index(&base, 1), t_crash)
        .recover(asu_index(&base, 1), t_crash + SimDuration::from_millis(40))
        .link_loss(0, asu_index(&base, 0), SimTime::ZERO, 0.05);
    let spec = FaultSpec::with_plan(plan);

    let seq = run_dsm_sort_faulty(&base, &spec, data.clone(), &dsm, mode).expect("runs");
    assert!(seq.pass1.par.is_none(), "threads=1 stays sequential");

    let par2 =
        run_dsm_sort_faulty(&base.with_threads(2), &spec, data.clone(), &dsm, mode).expect("runs");
    let par4 = run_dsm_sort_faulty(&base.with_threads(4), &spec, data, &dsm, mode).expect("runs");
    let stats = par4
        .pass1
        .par
        .as_ref()
        .expect("faulted run uses the partitioned engine");
    assert_eq!(stats.partitions, 2, "two hosts bound the partition count");
    assert_eq!(par4.pass1.par_fallback, None);
    assert!(
        stats.remote_messages > 0,
        "fence/NACK traffic crosses partitions"
    );
    assert_identical_faulty_sort(&par2, &par4);
    assert_same_faulty_sort(&seq, &par4);

    // Recovery on one and on two threads. The repair pass's makespan
    // moves if the lost records reach `split_across_asus` in any order
    // but ascending tag.
    for out in [&seq, &par2] {
        let repair = out.repair.as_ref().expect("records were lost");
        assert_eq!(
            (
                out.recovered_records,
                repair.makespan.as_nanos(),
                out.total.as_nanos()
            ),
            (1000, 2_920_376, 39_062_142),
            "repair golden drifted"
        );
    }

    // The frozen constants of the threads=4 faulted run.
    let s = par4.pass1.fault;
    let pinned = format!(
        "pass1_ns={} pass2_ns={} dispatched={} {}\n\
         fault retries={} nacks={} drops={} lost={} abandoned={} fenced={} detections={}\n\
         recovered={} lost_asus={} out_fnv={:#018x}\n\
         trace1={} {:#018x} trace2={} {:#018x}",
        par4.pass1.makespan.as_nanos(),
        par4.pass2.makespan.as_nanos(),
        par4.pass1.dispatched,
        par4.pass2.dispatched,
        s.retries,
        s.nacks,
        s.drops,
        s.lost_queued_records,
        s.abandoned_records,
        s.fenced_instances,
        s.detections,
        par4.recovered_records,
        par4.lost_asus.len(),
        keys_fnv(&par4.output),
        par4.pass1.trace.len(),
        fnv1a(par4.pass1.trace.render().bytes()),
        par4.pass2.trace.len(),
        fnv1a(par4.pass2.trace.render().bytes()),
    );
    assert_eq!(
        pinned,
        "pass1_ns=22063514 pass2_ns=14078252 dispatched=163 151\n\
         fault retries=3 nacks=2 drops=1 lost=1000 abandoned=0 fenced=2 detections=1\n\
         recovered=1000 lost_asus=0 out_fnv=0x5fe79c496c69d09c\n\
         trace1=58 0x4cc9cf9d8b2d0b80 trace2=59 0x95d28d5930442e8a",
        "faulted multi-host golden drifted"
    );
}

/// Snapshot-balancer multi-host pinned golden: the balancer armed at a
/// fixed period, run partitioned at threads=4 and frozen byte-exact;
/// the sequential run must agree on every conserved aggregate
/// (reweight count included) and the final output.
#[test]
fn pinned_balanced_multi_host_golden() {
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let base = ClusterConfig::era_2002(2, 4, 8.0)
        .with_trace(2048)
        .with_balancer(BalanceSpec::every(SimDuration::from_micros(500)).with_deadband(256));
    let data = generate_rec128(4_000, KeyDist::Exponential { rate: 4.0 }, 11);
    let mode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);

    let seq = run_dsm_sort(&base, data.clone(), &dsm, mode).expect("runs");
    assert!(seq.pass1.par.is_none(), "threads=1 stays sequential");
    let par = run_dsm_sort(&base.with_threads(4), data, &dsm, mode).expect("runs");
    let stats = par
        .pass1
        .par
        .as_ref()
        .expect("balanced run uses the partitioned engine");
    assert_eq!(stats.partitions, 2);
    assert_eq!(par.pass1.par_fallback, None);

    assert_eq!(
        (seq.pass1.reweights, seq.pass2.reweights),
        (par.pass1.reweights, par.pass2.reweights),
        "snapshot balancer reweights identically in both engines"
    );
    common::assert_equiv_report(&seq.pass1, &par.pass1, "pass1");
    common::assert_equiv_report(&seq.pass2, &par.pass2, "pass2");
    assert_eq!(common::output_keys_fnv(&seq), common::output_keys_fnv(&par));

    let pinned = format!(
        "pass1_ns={} pass2_ns={} total_ns={} dispatched={} {} reweights={} {} out_fnv={:#018x}",
        par.pass1.makespan.as_nanos(),
        par.pass2.makespan.as_nanos(),
        par.total.as_nanos(),
        par.pass1.dispatched,
        par.pass2.dispatched,
        par.pass1.reweights,
        par.pass2.reweights,
        common::output_keys_fnv(&par),
    );
    assert_eq!(
        pinned,
        "pass1_ns=10095572 pass2_ns=8869056 total_ns=18964628 dispatched=627 280 \
         reweights=3 0 out_fnv=0x4f6435715012d220",
        "balanced multi-host golden drifted"
    );
}

#[test]
fn backlog_sensitive_routing_falls_back_to_sequential() {
    // LoadAware/PowerOfTwoChoices read live queue depths at pick time,
    // which partitions cannot reproduce exactly; such runs must silently
    // take the sequential path and stay byte-identical regardless of the
    // thread count.
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let mode = LoadMode::Managed(RoutingPolicy::PowerOfTwoChoices);
    let data = generate_rec128(2_000, KeyDist::Uniform, 5);
    let base = ClusterConfig::era_2002(2, 3, 8.0);
    let seq = run_dsm_sort(&base, data.clone(), &dsm, mode).expect("runs");
    let par = run_dsm_sort(&base.with_threads(4), data, &dsm, mode).expect("runs");
    assert_same_sort(&seq, &par, TraceEq::Exact);
    assert!(
        par.pass1.par.is_none(),
        "backlog-sensitive routing must not use the partitioned engine"
    );
    assert_eq!(par.pass1.par_fallback, Some("backlog routing"));
    assert_eq!(
        seq.pass1.par_fallback, None,
        "threads=1 never records a reason"
    );
}
