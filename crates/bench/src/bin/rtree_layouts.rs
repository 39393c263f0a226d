//! **F5** — distributed R-tree organizations (Section 4.2, Figure 5).
//!
//! "Because the latter option stripes leaves across ASUs, every query
//! executes in parallel on all of the ASUs, which is useful to bound
//! search latency. The former option distributes the searches across the
//! ASUs, which is useful in server applications with many concurrent
//! searches."
//!
//! Measured: single-query latency (mean over a random query set, each
//! run alone) and aggregate throughput under a concurrent query flood.
//! Expected: stripe wins latency; partition wins throughput.

use lmas_bench::{fx, scaled_n, write_csv, Table};
use lmas_emulator::ClusterConfig;
use lmas_gis::{random_points, DistRTree, Layout, Rect};
use lmas_sim::DetRng;
use rayon::prelude::*;

fn random_queries(q: usize, side: f32, seed: u64) -> Vec<Rect> {
    let mut rng = DetRng::stream(seed, 0xF5);
    (0..q)
        .map(|_| {
            let x = rng.gen_f64() as f32 * (1.0 - side);
            let y = rng.gen_f64() as f32 * (1.0 - side);
            Rect::new(x, y, x + side, y + side)
        })
        .collect()
}

fn main() {
    let npoints = scaled_n(200_000, 20_000) as usize;
    let flood = 256usize;
    let probes = 16usize;
    let side = 0.08f32;

    println!("F5: partition vs stripe distributed R-trees ({npoints} points, {side}-side queries)");
    let mut table = Table::new("d layout latency_s throughput_qps");

    // Each (D, layout) cell builds its own index from the same seeded
    // point set and runs its probe/flood emulations independently, so
    // the grid fans out across threads; results return in input order,
    // keeping output byte-identical to the serial sweep.
    let cells: Vec<(usize, Layout)> = [4usize, 16]
        .into_iter()
        .flat_map(|d| [(d, Layout::Partition), (d, Layout::Stripe)])
        .collect();
    let measured: Vec<(f64, f64)> = cells
        .par_iter()
        .map(|&(d, layout)| {
            let cluster = ClusterConfig::era_2002(1, d, 8.0);
            let points = random_points(npoints, 9);
            let index = DistRTree::build(points, d, 64, layout);
            // Latency: each probe query runs alone; average makespan.
            let mut lat = 0.0;
            for (i, q) in random_queries(probes, side, 77).into_iter().enumerate() {
                let run = lmas_gis::run_queries(&cluster, &index, &[q], 1)
                    .unwrap_or_else(|e| panic!("latency probe {i}: {e}"));
                lat += run.report.makespan.as_secs_f64();
            }
            lat /= probes as f64;
            // Throughput: a flood of concurrent queries.
            let queries = random_queries(flood, side, 123);
            let run = lmas_gis::run_queries(&cluster, &index, &queries, 4).expect("flood");
            let thr = flood as f64 / run.report.makespan.as_secs_f64();
            (lat, thr)
        })
        .collect();
    for (&(d, layout), &(lat, thr)) in cells.iter().zip(&measured) {
        table.row(vec![
            d.into(),
            format!("{layout:?}").to_lowercase().into(),
            fx(lat, 6),
            fx(thr, 2),
        ]);
    }
    write_csv("rtree_layouts.csv", &table);
    // Hot-region extension: every query hammers the same spatial slab.
    // Partition serializes on one ASU; the paper's hybrid (replicated
    // subtrees) load-balances replicas; stripe parallelizes by design.
    println!("\nhot-region flood ({flood} queries on one slab, D=16):");
    let d = 16usize;
    let cluster = ClusterConfig::era_2002(1, d, 8.0);
    let points = random_points(npoints, 9);
    let hot: Vec<Rect> = (0..flood)
        .map(|i| {
            let off = (i % 8) as f32 * 0.002;
            Rect::new(0.05 + off, 0.1, 0.05 + off + side, 0.1 + side * 4.0)
        })
        .collect();
    let hot_layouts = [
        Layout::Partition,
        Layout::Replicated { copies: 4 },
        Layout::Stripe,
    ];
    let hot_thr: Vec<f64> = hot_layouts
        .par_iter()
        .map(|&layout| {
            let index = DistRTree::build(points.clone(), d, 64, layout);
            let run = lmas_gis::run_queries(&cluster, &index, &hot, 4).expect("hot flood");
            flood as f64 / run.report.makespan.as_secs_f64()
        })
        .collect();
    let mut hot_table = Table::new("layout throughput_qps");
    for (&layout, &thr) in hot_layouts.iter().zip(&hot_thr) {
        hot_table.row(vec![
            format!("{layout:?}").to_lowercase().into(),
            fx(thr, 2),
        ]);
    }
    write_csv("rtree_hot_region.csv", &hot_table);
}
