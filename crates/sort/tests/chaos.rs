//! Chaos testing: random fault plans against DSM-Sort, checked for
//! recovery correctness (output byte-identical to fault-free) and
//! bit-reproducibility (same seed twice → same everything).

use lmas_core::{generate_rec128, KeyDist};
use lmas_emulator::{asu_index, ClusterConfig, FaultSpec};
use lmas_sort::{
    canonical_equal, run_dsm_sort, run_dsm_sort_faulty, DsmConfig, LoadMode,
};
use lmas_core::RoutingPolicy;
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use proptest::prelude::*;

const HOSTS: usize = 2;
const ASUS: usize = 3;
const N: u64 = 2_000;

fn dsm() -> DsmConfig {
    DsmConfig::new(4, 256, 4, 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Crash a random ASU at a random point of pass 1 (optionally
    /// recovering later). As long as the surviving nodes can host the
    /// repair, the final output is byte-identical to the fault-free
    /// sort, and the whole faulted run is deterministic.
    #[test]
    fn crashed_sort_repairs_to_fault_free_output(
        victim in 0usize..ASUS,
        crash_frac in 0.15f64..0.85,
        recovers in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mut cluster = ClusterConfig::era_2002(HOSTS, ASUS, 8.0);
        cluster.seed = seed;
        let dsm = dsm();
        let mode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);
        let data = generate_rec128(N, KeyDist::Uniform, seed);

        // Fault-free golden run fixes both the expected output and the
        // pass-1 makespan the crash time is scaled against.
        let golden = run_dsm_sort(&cluster, data.clone(), &dsm, mode).unwrap();
        let t_crash = SimTime((golden.pass1.makespan.as_secs_f64()
            * crash_frac
            * 1e9) as u64);

        let mut plan = FaultPlan::new().crash(asu_index(&cluster, victim), t_crash);
        if recovers {
            plan = plan.recover(
                asu_index(&cluster, victim),
                t_crash + SimDuration::from_millis(40),
            );
        }
        let spec = FaultSpec::with_plan(plan);

        let faulted =
            run_dsm_sort_faulty(&cluster, &spec, data.clone(), &dsm, mode).unwrap();
        // Recovery correctness: byte-identical canonical output.
        canonical_equal(&golden.output, &faulted.output).unwrap();
        // The fault actually bit (something bounced, was fenced, or was
        // repaired) unless the crash landed after pass-1 wound down.
        let stats = faulted.pass1.fault;
        prop_assert!(
            !stats.is_quiet() || faulted.recovered_records == 0,
            "active plan with no observable effect and no repair"
        );

        // Determinism: the same seeded chaos run, twice, is identical.
        let again =
            run_dsm_sort_faulty(&cluster, &spec, data, &dsm, mode).unwrap();
        prop_assert_eq!(faulted.pass1.makespan, again.pass1.makespan);
        prop_assert_eq!(faulted.pass1.dispatched, again.pass1.dispatched);
        prop_assert_eq!(faulted.pass1.fault, again.pass1.fault);
        prop_assert_eq!(faulted.recovered_records, again.recovered_records);
        prop_assert_eq!(faulted.total, again.total);
        canonical_equal(&faulted.output, &again.output).unwrap();
    }
}

/// The pinned acceptance scenario: 1 of 3 ASUs crashes mid-distribute
/// with replicated (Managed-mode) sorters; the sort completes, repair
/// re-dispatches the lost records, and the output is byte-identical to
/// the fault-free run.
#[test]
fn pinned_crash_mid_distribute_recovers_exactly() {
    let cluster = ClusterConfig::era_2002(HOSTS, ASUS, 8.0);
    let dsm = dsm();
    let mode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);
    let data = generate_rec128(N, KeyDist::Uniform, 7);

    let golden = run_dsm_sort(&cluster, data.clone(), &dsm, mode).unwrap();
    let t_crash = SimTime(golden.pass1.makespan.0 / 3);
    let spec = FaultSpec::with_plan(
        FaultPlan::new().crash(asu_index(&cluster, ASUS - 1), t_crash),
    );
    let faulted = run_dsm_sort_faulty(&cluster, &spec, data, &dsm, mode).unwrap();

    assert_eq!(faulted.lost_asus, vec![ASUS - 1]);
    assert!(
        faulted.recovered_records > 0,
        "a mid-distribute crash loses records that repair must recover"
    );
    assert!(faulted.repair.is_some());
    canonical_equal(&golden.output, &faulted.output).unwrap();
    assert!(
        faulted.total > golden.total,
        "recovery costs virtual time: {:?} vs {:?}",
        faulted.total,
        golden.total
    );
}

/// With nothing to inject, the faulted driver is the plain driver: same
/// virtual times and byte-identical output in every load mode — Auto's
/// planned pass 2 included.
#[test]
fn inactive_spec_matches_the_plain_driver_in_every_mode() {
    let cluster = ClusterConfig::era_2002(HOSTS, ASUS, 8.0);
    let dsm = dsm();
    let data = generate_rec128(N, KeyDist::Uniform, 7);
    for mode in [
        LoadMode::Static,
        LoadMode::Managed(RoutingPolicy::SimpleRandomization),
        LoadMode::Auto,
    ] {
        let plain = run_dsm_sort(&cluster, data.clone(), &dsm, mode).unwrap();
        let faulted =
            run_dsm_sort_faulty(&cluster, &FaultSpec::none(), data.clone(), &dsm, mode).unwrap();
        assert_eq!(faulted.total, plain.total, "{mode:?}");
        assert_eq!(faulted.pass1.makespan, plain.pass1.makespan, "{mode:?}");
        assert_eq!(faulted.pass2.makespan, plain.pass2.makespan, "{mode:?}");
        assert_eq!(faulted.output, plain.output, "{mode:?}");
        assert!(faulted.repair.is_none() && faulted.recovered_records == 0);
    }
}
