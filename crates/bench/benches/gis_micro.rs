//! Wall-clock microbenchmarks for the GIS substrates: R-tree
//! construction and search, the external priority queue, and watershed
//! labeling. Runs as a plain main under `cargo bench --bench gis_micro`
//! and writes `results/BENCH_gis.json`.

use lmas_bench::{GateFailure, Report};
use lmas_gis::{fractal_terrain, random_points, ExternalPq, RTree, Rect, WatershedLabeler};

fn main() -> Result<(), GateFailure> {
    let mut report = Report::new("BENCH_gis.json");

    let points = random_points(50_000, 1);
    report.bench("rtree/bulk_load_50k", 50_000, || {
        RTree::bulk_load(points.clone(), 32)
    });
    let tree = RTree::bulk_load(points, 32);
    for &side in &[0.01f32, 0.1, 0.5] {
        let rect = Rect::new(0.3, 0.3, 0.3 + side, 0.3 + side);
        report.bench(&format!("rtree/query_side={side}"), 1, || tree.query(&rect));
    }

    let n = 10_000u64;
    let mut rng = lmas_sim::DetRng::new(3);
    report.bench("external_pq/push_pop_10k_spilling", n, || {
        let mut pq = ExternalPq::new(256);
        for _ in 0..n {
            pq.push(rng.gen_range(1 << 20), 0u32);
        }
        let mut acc = 0u64;
        while let Some((k, _)) = pq.pop_min() {
            acc = acc.wrapping_add(k);
        }
        acc
    });

    // The access pattern of time-forward processing: a standing
    // population of pending messages, every step one push and one pop,
    // nothing spilled. A queue that re-sorts after a push pays the whole
    // population per step here.
    report.bench("external_pq/push_pop_10k_in_memory", n, || {
        let mut pq = ExternalPq::new(1 << 16);
        for _ in 0..1_000 {
            pq.push(rng.gen_range(1 << 20), 0u32);
        }
        let mut acc = 0u64;
        for _ in 0..n {
            let (k, _) = pq.pop_min().expect("standing population");
            acc = acc.wrapping_add(k);
            pq.push(k + rng.gen_range(1 << 10), 0u32);
        }
        acc
    });

    // 193 x 193 is the side of the `terraflow` workload of `benchmark/`.
    for (side, seed) in [(129usize, 5u64), (193, 2002)] {
        let grid = fractal_terrain(side, side, 0.55, seed);
        let mut cells = lmas_gis::restructure(&grid);
        cells.sort_by_key(lmas_core::Record::key);
        let name = format!("watershed/label_{side}x{side}");
        report.bench(&name, cells.len() as u64, || {
            let mut labeler = WatershedLabeler::default();
            for &cell in &cells {
                labeler.label(cell);
            }
            labeler.colors()
        });
    }

    report.headline(&["watershed/label_193x193"]);
    report.write()
}
