//! Differential tests for the coded-shuffle distribute mode: a coded
//! run (any legal r) must produce the *same sorted output* as the
//! uncoded engine — coding changes when bytes move, never which records
//! arrive — and r = 1 must *be* the uncoded engine, reproducing the
//! frozen golden constants bit for bit. Coded runs are also held to the
//! partitioned kernel's determinism contract at several thread counts
//! (no fallback reason, byte-identical virtual time).

use lmas_core::{generate_rec128, KeyDist, Record};
use lmas_emulator::ClusterConfig;
use lmas_sim::fnv1a;
use lmas_sort::{canonical_equal, run_dsm_sort, DsmConfig, LoadMode};
use proptest::prelude::*;

/// α = 8 so every r ∈ {1, 2, 4} divides the subset count.
fn dsm(r: usize) -> DsmConfig {
    DsmConfig::new(8, 256, 4, 64).with_coded(r)
}

#[test]
fn coded_output_matches_uncoded_engine() {
    let cluster = ClusterConfig::era_2002(2, 4, 8.0);
    let data = generate_rec128(6_000, KeyDist::Uniform, 11);
    let plain = run_dsm_sort(&cluster, data.clone(), &dsm(1), LoadMode::Static).expect("runs");
    for r in [2usize, 4] {
        let coded = run_dsm_sort(&cluster, data.clone(), &dsm(r), LoadMode::Static).expect("runs");
        canonical_equal(&plain.output, &coded.output)
            .unwrap_or_else(|e| panic!("coded r={r} output diverges: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random shapes × seeds × r ∈ {1, 2, 4}: the coded sort emits the
    /// exact record set of the uncoded sort, and the coded run itself is
    /// byte-identical between the sequential engine and the partitioned
    /// kernel at threads ∈ {1, 4} (no fallback reason).
    #[test]
    fn coded_sorts_canonically_equal_uncoded(
        hosts in 2usize..4,
        extra_asus in 0usize..3,
        n in 1_000u64..3_000,
        seed in 0u64..1_000,
        r_idx in 0usize..3,
    ) {
        let r = [1usize, 2, 4][r_idx];
        let asus = hosts + extra_asus;
        let mut cluster = ClusterConfig::era_2002(hosts, asus, 8.0);
        cluster.seed = seed;
        let data = generate_rec128(n, KeyDist::Uniform, seed);

        let plain = run_dsm_sort(&cluster, data.clone(), &dsm(1), LoadMode::Static).unwrap();
        let coded = run_dsm_sort(&cluster, data.clone(), &dsm(r), LoadMode::Static).unwrap();
        canonical_equal(&plain.output, &coded.output)
            .unwrap_or_else(|e| panic!("coded r={r} output diverges: {e}"));

        let par = run_dsm_sort(&cluster.with_threads(4), data, &dsm(r), LoadMode::Static).unwrap();
        let stats = par.pass1.par.as_ref().expect("coded run parallelizes");
        prop_assert_eq!(stats.partitions, 4usize.min(hosts));
        prop_assert!(par.pass1.par_fallback.is_none(), "no fallback reason on a coded run");
        prop_assert_eq!(coded.pass1.makespan, par.pass1.makespan);
        prop_assert_eq!(coded.pass2.makespan, par.pass2.makespan);
        prop_assert_eq!(coded.total, par.total);
        let a = fnv1a(coded.output.iter().flat_map(|p| p.records()).flat_map(|r| r.key().to_le_bytes()));
        let b = fnv1a(par.output.iter().flat_map(|p| p.records()).flat_map(|r| r.key().to_le_bytes()));
        prop_assert_eq!(a, b, "threaded coded output diverges");
    }
}

/// `with_coded(1)` is the uncoded engine, not a near miss: the pinned
/// golden emulation (same cluster, seed, and knobs as
/// `tests/golden.rs`) reproduces every frozen virtual-time observable.
#[test]
fn coded_r1_reproduces_frozen_goldens() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0).with_trace(4096);
    let dsm = DsmConfig::new(4, 256, 4, 64).with_coded(1);
    let data = generate_rec128(5_000, KeyDist::Uniform, 1);
    let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::Static).expect("pinned sort runs");

    assert_eq!(out.pass1.makespan.as_nanos(), 16_725_632);
    assert_eq!(out.pass2.makespan.as_nanos(), 23_332_828);
    assert_eq!(out.total.as_nanos(), 40_058_460);
    assert_eq!(out.pass1.dispatched, 128);
    assert_eq!(out.pass2.dispatched, 116);

    let out_records: usize = out.output.iter().map(|p| p.len()).sum();
    assert_eq!(out_records, 5_000);
    let key_fnv = fnv1a(
        out.output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    assert_eq!(key_fnv, 0x5ff3_a122_8ca4_5147);

    assert_eq!(out.pass1.trace.len(), 66);
    assert_eq!(fnv1a(out.pass1.trace.render().bytes()), 0x6805_ad8f_ff08_52f2);
    assert_eq!(out.pass2.trace.len(), 52);
    assert_eq!(fnv1a(out.pass2.trace.render().bytes()), 0x5b5f_3e97_4813_e521);
}
