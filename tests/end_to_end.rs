//! Cross-crate integration tests through the `lmas` facade: every layer
//! from the DES kernel to the GIS applications, exercised together.

use lmas::core::{generate_rec128, generate_rec8, KeyDist, Rec128, Record};
use lmas::emulator::ClusterConfig;
use lmas::gis::{fractal_terrain, matches_oracle, run_terraflow};
use lmas::sort::{
    adaptive_config, planner_shape, run_dsm_sort, verify_rec128_output, DsmConfig, LoadMode,
};

#[test]
fn facade_reexports_compose() {
    // Types from different crates interoperate through the facade.
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let alpha = planner_shape(&cluster).pick_alpha(&[1, 4, 16], 1 << 12, Rec128::SIZE);
    assert!([1u64, 4, 16].contains(&alpha));
    let _ = generate_rec8(10, KeyDist::Uniform, 1);
}

#[test]
fn dsm_sort_small_cluster_full_stack() {
    let cluster = ClusterConfig::era_2002(2, 4, 8.0);
    let n = 30_000u64;
    let dsm = DsmConfig::new(8, 512, 4, 128);
    let data = generate_rec128(n, KeyDist::Uniform, 21);
    let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::managed_sr()).expect("sort");
    let sorted = verify_rec128_output(&out.output, n).expect("sorted permutation");
    assert_eq!(sorted.len() as u64, n);
    // Both passes consumed emulated time and processed every record.
    assert!(out.pass1.makespan.as_nanos() > 0);
    assert!(out.pass2.makespan.as_nanos() > 0);
    assert_eq!(out.pass1.stage_records_in[0], n);
}

#[test]
fn dsm_sort_with_exponential_skew_and_adaptive_config() {
    let cluster = ClusterConfig::era_2002(1, 8, 4.0);
    let n = 25_000u64;
    let dsm = adaptive_config::<Rec128>(&cluster, n, 1024, 8);
    let data = generate_rec128(n, KeyDist::Exponential { rate: 8.0 }, 33);
    let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::managed_sr()).expect("sort");
    verify_rec128_output(&out.output, n).expect("sorted permutation");
}

#[test]
fn terraflow_full_pipeline_matches_oracle() {
    let cluster = ClusterConfig::era_2002(1, 4, 8.0);
    let grid = fractal_terrain(49, 49, 0.6, 17);
    let mut dsm = DsmConfig::new(4, 512, 4, 256);
    dsm.input_packet_records = 256;
    let out = run_terraflow(&cluster, &grid, &dsm, LoadMode::Static).expect("terraflow");
    assert!(matches_oracle(&grid, &out));
    assert!(out.watersheds > 0);
}

#[test]
fn rtree_layouts_agree_with_each_other_and_the_scan() {
    use lmas::gis::{linear_scan, random_points, run_queries, DistRTree, Layout, Rect};
    let cluster = ClusterConfig::era_2002(1, 4, 8.0);
    let points = random_points(5_000, 3);
    let queries = vec![
        Rect::new(0.0, 0.0, 0.5, 0.5),
        Rect::new(0.25, 0.25, 0.75, 0.75),
        Rect::new(0.9, 0.9, 1.0, 1.0),
    ];
    let mut answers = Vec::new();
    for layout in [Layout::Partition, Layout::Stripe] {
        let index = DistRTree::build(points.clone(), 4, 16, layout);
        let run = run_queries(&cluster, &index, &queries, 2).expect("queries");
        answers.push(run.counts);
    }
    assert_eq!(answers[0], answers[1], "layouts must agree");
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            answers[0][&(i as u32)],
            linear_scan(&points, q).len() as u64
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    // The entire stack — RNG, routing, emulation, sort — is reproducible.
    let run = || {
        let cluster = ClusterConfig::era_2002(2, 4, 8.0);
        let data = generate_rec128(10_000, KeyDist::Uniform, 5);
        let dsm = DsmConfig::new(4, 256, 4, 128);
        let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::managed_sr()).expect("sort");
        (
            out.pass1.makespan,
            out.pass2.makespan,
            out.pass1.nodes[0].cpu_busy,
        )
    };
    assert_eq!(run(), run());
}

