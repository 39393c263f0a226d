//! End-to-end DSM-Sort tests on the emulated cluster.

use lmas_core::{generate_rec128, KeyDist, NodeId, Rec128, Record};
use lmas_emulator::ClusterConfig;
use lmas_sort::{
    adaptive_config, choose_splitters, run_dsm_sort, run_pass1, run_pass1_baseline,
    split_across_asus, verify_rec128_output, DsmConfig, DsmError, LoadMode,
};

fn sort_and_verify(
    cluster: &ClusterConfig,
    n: u64,
    dsm: &DsmConfig,
    mode: LoadMode,
    seed: u64,
) -> lmas_sort::DsmOutcome<Rec128> {
    let data = generate_rec128(n, KeyDist::Uniform, seed);
    let out = run_dsm_sort(cluster, data, dsm, mode).expect("sort runs");
    verify_rec128_output(&out.output, n).expect("output is a sorted permutation");
    out
}

#[test]
fn small_sort_static_mode() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let out = sort_and_verify(&cluster, 5_000, &dsm, LoadMode::Static, 1);
    assert!(out.total.as_nanos() > 0);
    assert!(out.pass1.makespan.as_nanos() > 0);
    assert!(out.pass2.makespan.as_nanos() > 0);
}

#[test]
fn small_sort_load_managed_sr() {
    let cluster = ClusterConfig::era_2002(2, 4, 8.0);
    let dsm = DsmConfig::new(4, 256, 4, 64);
    sort_and_verify(&cluster, 5_000, &dsm, LoadMode::managed_sr(), 2);
}

#[test]
fn sort_with_skewed_input() {
    let cluster = ClusterConfig::era_2002(2, 4, 8.0);
    let dsm = DsmConfig::new(8, 256, 4, 64);
    let n = 8_000;
    let data = generate_rec128(n, KeyDist::Exponential { rate: 8.0 }, 3);
    let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::managed_sr()).expect("sort runs");
    verify_rec128_output(&out.output, n).expect("skewed input still sorts");
}

#[test]
fn sort_alpha_one_degenerates_gracefully() {
    // α = 1: no real distribute; everything lands in one subset.
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let dsm = DsmConfig::new(1, 512, 4, 64);
    sort_and_verify(&cluster, 4_000, &dsm, LoadMode::Static, 4);
}

#[test]
fn sort_many_asus_many_hosts() {
    let cluster = ClusterConfig::era_2002(4, 8, 4.0);
    let dsm = DsmConfig::new(16, 128, 4, 64);
    sort_and_verify(&cluster, 10_000, &dsm, LoadMode::managed_sr(), 5);
}

#[test]
fn adaptive_config_sorts_correctly() {
    let cluster = ClusterConfig::era_2002(1, 8, 8.0);
    let n = 20_000u64;
    let dsm = adaptive_config::<Rec128>(&cluster, n, 1024, 16);
    sort_and_verify(&cluster, n, &dsm, LoadMode::managed_sr(), 6);
}

#[test]
fn pass1_runs_are_sorted_and_complete() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 4_000u64;
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(n, KeyDist::Uniform, 7);
    let splitters = choose_splitters(&data, dsm.alpha);
    let per_asu = split_across_asus(&data, cluster.asus);
    let p1 = run_pass1(&cluster, per_asu, splitters.clone(), &dsm, LoadMode::Static)
        .expect("pass 1 runs");
    let mut total = 0usize;
    for runs in &p1.runs_per_asu {
        for run in runs {
            assert!(run.is_sorted(), "every stored run is sorted");
            assert!(run.len() <= dsm.beta, "runs are at most β records");
            // A run never spans subsets.
            let b0 = lmas_core::kernels::bucket_of(run.records()[0].key(), &splitters);
            assert!(run
                .records()
                .iter()
                .all(|r| lmas_core::kernels::bucket_of(r.key(), &splitters) == b0));
            total += run.len();
        }
    }
    assert_eq!(total as u64, n, "no records lost in run formation");
    // Runs are striped: both ASUs hold some.
    assert!(p1.runs_per_asu.iter().all(|r| !r.is_empty()));
}

#[test]
fn baseline_produces_identical_runs_semantics() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 4_000u64;
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(n, KeyDist::Uniform, 8);
    let splitters = choose_splitters(&data, dsm.alpha);
    let per_asu = split_across_asus(&data, cluster.asus);
    let base = run_pass1_baseline(&cluster, per_asu, splitters, &dsm).expect("baseline runs");
    let total: usize = base
        .runs_per_asu
        .iter()
        .flatten()
        .map(|p| p.len())
        .sum();
    assert_eq!(total as u64, n);
    // Passive storage: the ASUs burn no CPU.
    for node in &base.report.nodes {
        if let NodeId::Asu(_) = node.id {
            assert_eq!(
                node.cpu_busy.as_nanos(),
                0,
                "{} should be passive",
                node.id
            );
        }
    }
}

#[test]
fn active_asus_do_burn_cpu() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 4_000u64;
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(n, KeyDist::Uniform, 9);
    let splitters = choose_splitters(&data, dsm.alpha);
    let per_asu = split_across_asus(&data, cluster.asus);
    let active = run_pass1(&cluster, per_asu, splitters, &dsm, LoadMode::Static).unwrap();
    for node in &active.report.nodes {
        if let NodeId::Asu(_) = node.id {
            assert!(node.cpu_busy.as_nanos() > 0, "{} should compute", node.id);
        }
    }
}

#[test]
fn insufficient_capacity_rejected() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    // αβγ = 2·2·1 = 4 < 100.
    let dsm = DsmConfig::new(2, 2, 1, 1);
    let data = generate_rec128(100, KeyDist::Uniform, 1);
    match run_dsm_sort(&cluster, data, &dsm, LoadMode::Static) {
        Err(err) => assert!(matches!(err, DsmError::Config(_)), "{err}"),
        Ok(_) => panic!("under-provisioned config should be rejected"),
    }
}

#[test]
fn deterministic_across_reruns() {
    let cluster = ClusterConfig::era_2002(2, 4, 8.0);
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let run = || {
        let data = generate_rec128(5_000, KeyDist::Uniform, 11);
        let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::managed_sr()).unwrap();
        (out.pass1.makespan, out.pass2.makespan)
    };
    assert_eq!(run(), run());
}

#[test]
fn work_audit_tracks_paper_identity() {
    // Total declared compares across both passes ≈ n·log2(αβγ) when the
    // configuration is exactly two-pass-tight and uniform.
    let cluster = ClusterConfig::era_2002(1, 4, 8.0);
    let n = 1u64 << 14; // 16384
    let dsm = DsmConfig::new(4, 256, 4, 64); // αβγ = 4·256·256 ≫ n — merge shallower than bound
    let data = generate_rec128(n, KeyDist::Uniform, 12);
    let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::Static).unwrap();
    let compares: u64 = out
        .pass1
        .stage_work
        .iter()
        .chain(out.pass2.stage_work.iter())
        .map(|(_, w)| w.compares)
        .sum();
    // Lower bound: distribute (log α = 2) + block sort (log β = 8) per
    // record = 10 n; merge adds more.
    assert!(
        compares >= 10 * n,
        "declared compares {compares} below distribute+sort floor"
    );
    // Upper bound: the paper's identity with the declared parameters.
    let bound = dsm.work_bound_compares(n);
    assert!(
        compares <= bound,
        "declared compares {compares} exceed n·log(αβγ) = {bound}"
    );
}

#[test]
fn multipass_merge_sorts_when_gamma_is_tiny() {
    use lmas_sort::run_dsm_sort_multipass;
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 8_000u64;
    // β=64 → 125 runs; γ1=2, γ2=4: two-pass capacity αβγ = 2·64·8 = 1024 ≪ n,
    // so intermediate ASU-local merge passes are required.
    let dsm = DsmConfig::new(2, 64, 2, 4);
    let data = generate_rec128(n, KeyDist::Uniform, 31);
    let out = run_dsm_sort_multipass(&cluster, data, &dsm, LoadMode::Static).expect("sort");
    assert!(
        !out.intermediate.is_empty(),
        "tiny γ must force intermediate merge passes"
    );
    verify_rec128_output(&out.output, n).expect("sorted permutation");
    assert!(out.total >= out.pass1.makespan);
    assert!(out.host_fanin <= dsm.gamma2, "fan-in {}", out.host_fanin);
}

/// More ASUs than γ₂, as in the fleet job (192 ASUs, γ₂ = 64): each ASU
/// holding runs of a subset sends that subset's host merge its own
/// γ₁-merged run (here up to 10 of the 12 ASUs), so the realised fan-in
/// exceeds the declared γ₂. The two-pass sort still runs
/// to completion — in debug builds too — and reports that fan-in.
#[test]
fn host_fanin_above_gamma2_is_reported_not_fatal() {
    let cluster = ClusterConfig::era_2002(2, 12, 8.0);
    let dsm = DsmConfig::new(4, 64, 8, 4);
    let mode = LoadMode::Managed(lmas_core::RoutingPolicy::RoundRobin);
    let out = sort_and_verify(&cluster, 4_000, &dsm, mode, 7);
    assert_eq!(out.host_fanin, 10);
}

#[test]
fn multipass_with_ample_gamma_needs_no_extra_passes() {
    use lmas_sort::run_dsm_sort_multipass;
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 4_000u64;
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(n, KeyDist::Uniform, 32);
    let out = run_dsm_sort_multipass(&cluster, data, &dsm, LoadMode::Static).expect("sort");
    assert!(out.intermediate.is_empty(), "ample γ needs two passes only");
    verify_rec128_output(&out.output, n).expect("sorted permutation");
}

#[test]
fn multipass_rejects_gamma1_one() {
    use lmas_sort::run_dsm_sort_multipass;
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let dsm = DsmConfig::new(2, 64, 1, 4);
    let data = generate_rec128(100, KeyDist::Uniform, 1);
    assert!(run_dsm_sort_multipass(&cluster, data, &dsm, LoadMode::Static).is_err());
}
