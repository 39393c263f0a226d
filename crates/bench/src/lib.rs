//! # lmas-bench — the experiment harness
//!
//! One binary per figure/table of the paper (plus the extension
//! experiments registered in `DESIGN.md` §4):
//!
//! | target | artifact |
//! |--------|----------|
//! | `fig9` | Figure 9 — DSM-Sort pass-1 speedup vs #ASUs per α |
//! | `fig10` | Figure 10 — host utilization under skew ± load management |
//! | `work_table` | T1 — the `n·log(αβγ)` work identity |
//! | `c_sensitivity` | T2 — Figure 9 at c = 4 vs c = 8 |
//! | `gamma_split` | T3 — merge-pass time vs (γ₁, γ₂) split |
//! | `routing_ablation` | T4 — routing policies under skew |
//! | `rtree_layouts` | F5 — partition vs stripe query latency/throughput |
//! | `terraflow_steps` | F-TF — per-step TerraFlow scaling |
//! | `interference` | T5 — shared-ASU interference and adaptation |
//! | `fault_sweep` | F-FT — makespan inflation under a masked crash (`BENCH_faults.json`) |
//! | `disk_scaling` | BENCH-storage — spindles, buffer pool, read-ahead (`BENCH_storage.json`) |
//! | `placement_sweep` | F-PLACE — planned vs naive layouts (`BENCH_placement.json`) |
//! | `par_scaling` | BENCH-par-sim — partitioned kernel scaling (`BENCH_par_sim.json`) |
//! | `coded_shuffle` | F-CS — coded-shuffle r-sweep vs the planner (`BENCH_coded.json`) |
//! | `repair_fleet` | F-RF — re-replication vs the mean-field ODE (`BENCH_repair.json`) |
//! | `multi_tenant` | F-MT — job latency under open arrivals (`BENCH_sched.json`) |
//! | `determinism` | the pinned run behind `results/determinism.txt` |
//!
//! Each binary prints its series and writes a CSV or `BENCH_*.json`
//! under `results/` at the workspace root. `benches/` holds the
//! wall-clock micro-benches (`kernels`, `sim_micro`, `gis_micro`).

use std::fs;
use std::path::PathBuf;

/// Directory where experiment CSVs land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("LMAS_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write `contents` to `results/<name>` and echo the path.
pub fn write_results(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write results file");
    println!("[wrote {}]", path.display());
    path
}

/// Render one aligned table row from cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Wall-clock micro-benchmark support: a median-of-iterations timer and
/// a hand-rolled JSON emitter (the offline workspace carries no external
/// bench harness or serializer). Used by the `benches/` targets, which
/// run as plain `harness = false` mains under `cargo bench`.
pub mod timing {
    use std::time::Instant;

    /// Timed iterations per measurement (`LMAS_BENCH_ITERS`, default 15).
    pub fn iters() -> usize {
        std::env::var("LMAS_BENCH_ITERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(15)
            .max(1)
    }

    /// Median wall-clock nanoseconds of one call to `f`, over
    /// [`iters`] timed iterations after a few warmup calls. The median
    /// (not the mean) keeps one preempted iteration from skewing the
    /// figure.
    pub fn median_ns<T>(mut f: impl FnMut() -> T) -> f64 {
        for _ in 0..3 {
            std::hint::black_box(f());
        }
        let mut samples: Vec<f64> = (0..iters())
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        }
    }

    /// A collected set of named measurements, rendered to JSON.
    #[derive(Default)]
    pub struct BenchReport {
        entries: Vec<(String, f64)>,
    }

    impl BenchReport {
        /// An empty report.
        pub fn new() -> BenchReport {
            BenchReport::default()
        }

        /// Time `f` and record `median / per` (e.g. per-record ns) under
        /// `name`; prints the figure as it lands.
        pub fn bench<T>(&mut self, name: &str, per: u64, f: impl FnMut() -> T) {
            let ns = median_ns(f) / per.max(1) as f64;
            println!("{name:<40} {ns:>12.2} ns/unit");
            self.entries.push((name.to_string(), ns));
        }

        /// Render the flat `{"name": ns, ...}` JSON object, closed by the
        /// `host_cores` the figures were measured on.
        pub fn to_json(&self) -> String {
            let mut out = String::from("{\n");
            for (name, v) in &self.entries {
                // Names are ASCII identifiers chosen by the benches; no
                // escaping beyond quotes is needed.
                out.push_str(&format!("  \"{name}\": {v:.3},\n"));
            }
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            out.push_str(&format!("  \"host_cores\": {cores}\n}}\n"));
            out
        }
    }
}

/// Quick scale helper: read `LMAS_SCALE` (float, default 1.0) to shrink
/// or grow experiment sizes without editing code.
pub fn scale() -> f64 {
    std::env::var("LMAS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a record count by `LMAS_SCALE`, keeping at least `min`.
pub fn scaled_n(base: u64, min: u64) -> u64 {
    ((base as f64 * scale()) as u64).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aligns_right() {
        let r = row(&["a".into(), "42".into()], &[3, 5]);
        assert_eq!(r, "  a     42");
    }

    #[test]
    fn scaled_n_respects_min() {
        assert!(scaled_n(100, 10) >= 10);
    }
}
