//! Differential property tests for the partitioned parallel kernel:
//! random cluster shapes × random fault plans × the snapshot balancer,
//! run at `threads ∈ {1, 2, 4, 8}`, must satisfy the determinism
//! contract spelled out in `tests/common` — bit-for-bit sequential
//! equality at one partition, byte-identity between equal partition
//! counts, conserved aggregates plus an exact final output across
//! partition counts. Fault plans and the (snapshot-mode) balancer no
//! longer force the sequential path: both run partitioned and are held
//! to the same contract. `scripts/check.sh` runs this suite as part of
//! the parallel gate.

mod common;

use common::{assert_same_sort, TraceEq};
use lmas_core::{generate_rec128, KeyDist, RoutingPolicy};
use lmas_emulator::{asu_index, BalanceSpec, ClusterConfig, FaultSpec};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use lmas_sort::{run_dsm_sort, run_dsm_sort_faulty, DsmConfig, DsmOutcome, LoadMode};
use proptest::prelude::*;

fn dsm() -> DsmConfig {
    DsmConfig::new(4, 256, 4, 64)
}

fn mode_for(routing: usize) -> LoadMode {
    match routing {
        0 => LoadMode::Static,
        1 => LoadMode::Managed(RoutingPolicy::RoundRobin),
        _ => LoadMode::Managed(RoutingPolicy::SimpleRandomization),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any eligible cluster shape, at any thread count, reproduces the
    /// sequential run: bit-for-bit at one partition, conserved
    /// aggregates + exact final output at several, byte-identical
    /// whenever two thread counts resolve to the same partition count.
    #[test]
    fn random_shapes_match_sequential_at_every_thread_count(
        hosts in 1usize..4,
        extra_asus in 0usize..3,
        n in 1_000u64..3_000,
        seed in 0u64..1_000,
        routing in 0usize..3,
    ) {
        let asus = hosts + extra_asus;
        let mode = mode_for(routing);
        let mut base = ClusterConfig::era_2002(hosts, asus, 8.0).with_trace(4096);
        base.seed = seed;
        let data = generate_rec128(n, KeyDist::Uniform, seed);

        let seq = run_dsm_sort(&base, data.clone(), &dsm(), mode).unwrap();
        prop_assert!(seq.pass1.par.is_none(), "threads=1 stays sequential");

        let par2 = run_dsm_sort(&base.with_threads(2), data.clone(), &dsm(), mode).unwrap();
        let par4 = run_dsm_sort(&base.with_threads(4), data.clone(), &dsm(), mode).unwrap();
        let par8 = run_dsm_sort(&base.with_threads(8), data.clone(), &dsm(), mode).unwrap();
        for (threads, par) in [(2usize, &par2), (4, &par4), (8, &par8)] {
            let stats = par.pass1.par.as_ref().expect("eligible run parallelizes");
            prop_assert_eq!(
                stats.partitions,
                threads.min(hosts),
                "partition count is bounded by hosts"
            );
            // Exact at one partition, conserved aggregates at several.
            assert_same_sort(&seq, par, TraceEq::Conserved);
        }
        // Thread counts that resolve to the same partitioning must be
        // byte-identical: hosts < 4 pins 4.min(hosts) == 8.min(hosts)
        // always, and 2.min(hosts) == 4.min(hosts) when hosts <= 2.
        assert_same_sort(&par4, &par8, TraceEq::Exact);
        if 2usize.min(hosts) == 4usize.min(hosts) {
            assert_same_sort(&par2, &par4, TraceEq::Exact);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random fault plans — optionally with the snapshot balancer live
    /// at the same time — run through the partitioned engine at every
    /// thread count and reproduce the sequential run: conserved
    /// aggregates (fault accounting included) per pass, exact recovery
    /// counts and final output, byte-identity between thread counts
    /// that resolve to the same partitioning.
    #[test]
    fn fault_plans_run_partitioned_and_match_sequential(
        victim in 0usize..3,
        crash_frac in 0.2f64..0.8,
        recovers in any::<bool>(),
        balanced in any::<bool>(),
        seed in 0u64..500,
    ) {
        let mut base = ClusterConfig::era_2002(2, 3, 8.0).with_trace(2048);
        base.seed = seed;
        if balanced {
            base = base.with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
        }
        let mode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);
        let data = generate_rec128(2_000, KeyDist::Uniform, seed);

        // Fault-free run fixes the pass-1 makespan the crash is scaled by.
        let golden = run_dsm_sort(&base, data.clone(), &dsm(), mode).unwrap();
        let t_crash =
            SimTime((golden.pass1.makespan.as_secs_f64() * crash_frac * 1e9) as u64);
        let mut plan = FaultPlan::new().crash(asu_index(&base, victim), t_crash);
        if recovers {
            plan = plan.recover(
                asu_index(&base, victim),
                t_crash + SimDuration::from_millis(40),
            );
        }
        let spec = FaultSpec::with_plan(plan);

        let seq = run_dsm_sort_faulty(&base, &spec, data.clone(), &dsm(), mode).unwrap();
        prop_assert!(seq.pass1.par.is_none(), "threads=1 stays sequential");
        let mut prev: Option<DsmOutcome<_>> = None;
        for threads in [2usize, 4, 8] {
            let par = run_dsm_sort_faulty(
                &base.with_threads(threads),
                &spec,
                data.clone(),
                &dsm(),
                mode,
            )
            .unwrap();
            let stats = par
                .pass1
                .par
                .as_ref()
                .expect("faulted runs use the partitioned engine");
            prop_assert_eq!(stats.partitions, 2, "two hosts bound the partition count");
            prop_assert!(par.pass1.par_fallback.is_none(), "no fallback reason recorded");
            assert_same_sort(&seq, &par, TraceEq::Conserved);
            // Every thread count here resolves to two partitions, so
            // the runs must be byte-identical to each other.
            if let Some(p) = &prev {
                assert_same_sort(p, &par, TraceEq::Exact);
            }
            prev = Some(par);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The snapshot balancer alone (no faults), over random shapes and
    /// sampling periods, runs partitioned at every thread count and
    /// reproduces the sequential engine's reweight count, dispatch
    /// accounting, and final output.
    #[test]
    fn balanced_runs_match_sequential_at_every_thread_count(
        hosts in 2usize..4,
        extra_asus in 0usize..3,
        n in 1_500u64..3_000,
        seed in 0u64..500,
        routing in 1usize..3,
        period_us in 200u64..900,
    ) {
        let asus = hosts + extra_asus;
        let mode = mode_for(routing);
        let mut base = ClusterConfig::era_2002(hosts, asus, 8.0)
            .with_trace(2048)
            .with_balancer(BalanceSpec::every(SimDuration::from_micros(period_us)));
        base.seed = seed;
        let data = generate_rec128(n, KeyDist::Uniform, seed);

        let seq = run_dsm_sort(&base, data.clone(), &dsm(), mode).unwrap();
        prop_assert!(seq.pass1.par.is_none(), "threads=1 stays sequential");
        for threads in [2usize, 4, 8] {
            let par = run_dsm_sort(&base.with_threads(threads), data.clone(), &dsm(), mode)
                .unwrap();
            let stats = par
                .pass1
                .par
                .as_ref()
                .expect("balanced runs use the partitioned engine");
            prop_assert_eq!(stats.partitions, threads.min(hosts));
            prop_assert!(par.pass1.par_fallback.is_none(), "no fallback reason recorded");
            assert_same_sort(&seq, &par, TraceEq::Conserved);
        }
    }
}
