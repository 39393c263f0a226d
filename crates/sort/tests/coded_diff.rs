//! Differential tests for the coded-shuffle distribute mode: a coded
//! run (any legal r) must produce the *same sorted output* as the
//! uncoded engine — coding changes when bytes move, never which records
//! arrive — and r = 1 must *be* the uncoded engine, bit for bit. Coded runs are also held to the
//! partitioned kernel's determinism contract at several thread counts
//! (no fallback reason, byte-identical virtual time).

mod common;

use common::{assert_same_sort, TraceEq};
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
/// sort (the golden ledger's first section) is byte-identical with and
/// without it, trace render included.
#[test]
fn coded_r1_reproduces_frozen_goldens() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0).with_trace(4096);
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(5_000, KeyDist::Uniform, 1);
    let plain = run_dsm_sort(&cluster, data.clone(), &dsm, LoadMode::Static).expect("runs");
    let r1 = run_dsm_sort(&cluster, data, &dsm.with_coded(1), LoadMode::Static).expect("runs");
    assert_same_sort(&plain, &r1, TraceEq::Exact);
}
