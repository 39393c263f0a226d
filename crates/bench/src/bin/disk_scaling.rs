//! **BENCH-storage** — multi-disk ASU scaling and read-ahead ablation.
//!
//! Three cells, all on DSM-Sort in a deliberately disk-bound regime
//! (the brick's sequential rate is the bottleneck by construction, so
//! spindle count is the knob under test):
//!
//! 1. **Distribute scaling** — pass 1 (run formation) with d ∈
//!    {1, 2, 4, 8} spindles per ASU; reports per-ASU I/O throughput
//!    (bytes moved through the ASU's stripe set over the pass makespan).
//! 2. **Read-ahead ablation** — pass 2 (merge) at fixed d = 2 and equal
//!    pool size, demand paging (RA = 0) vs a 4-packet prefetch window.
//! 3. **Pool-size sweep** — pass 1 at d = 2 across pool sizes: for a
//!    streaming sort the pool is a staging area, not a reuse cache, so
//!    frames bound write-behind coalescing rather than hit rate.
//!
//! All figures are virtual-time quantities: two runs at the same
//! `LMAS_SCALE` are byte-identical, and `check.sh` diffs a full-scale run
//! against the checked-in `results/BENCH_storage.json`.

use lmas_bench::{fx, obj, scaled_n, GateFailure, Report, Table};
use lmas_core::{generate_rec128, KeyDist, NodeId, Rec128};
use lmas_emulator::{ClusterConfig, EmulationReport, StorageSpec};
use lmas_sort::{choose_splitters, run_pass1, run_pass2, split_across_asus, DsmConfig, LoadMode};
use rayon::prelude::*;

const D_SWEEP: [usize; 4] = [1, 2, 4, 8];
const POOL_SWEEP: [usize; 3] = [16, 64, 256];
const POOL_FRAMES: usize = 128;

/// Cluster in the disk-bound regime: 2 hosts, 2 ASU bricks at c = 4,
/// spindles at 10 MB/s so the stripe set, not the CPUs, paces pass 1.
fn cluster(spec: StorageSpec) -> ClusterConfig {
    let mut cfg = ClusterConfig::era_2002(2, 2, 4.0).with_storage(spec);
    cfg.disk.rate_bytes_per_sec = 10.0e6;
    cfg
}

/// The bench's storage substrate: one-block stripe units so every
/// 512 KiB packet (8 × 64 KiB blocks) spans the whole stripe set.
fn spec(d: usize) -> StorageSpec {
    let mut s = StorageSpec::striped(d)
        .with_pool(POOL_FRAMES)
        .with_sched_window(8);
    s.blocks_per_stripe = 1;
    s
}

/// Mean per-ASU I/O throughput in MB/s: bytes moved through ASU stripe
/// sets over the pass makespan, divided by the ASU count.
fn per_asu_mb_s(r: &EmulationReport<Rec128>) -> f64 {
    let (bytes, asus) = r
        .nodes
        .iter()
        .filter(|n| matches!(n.id, NodeId::Asu(_)))
        .fold((0u64, 0u64), |(b, c), n| (b + n.disk.2 + n.disk.3, c + 1));
    bytes as f64 / r.makespan.as_secs_f64() / asus as f64 / 1.0e6
}

fn main() -> Result<(), GateFailure> {
    let n = scaled_n(1 << 17, 1 << 12);
    let mut dsm = DsmConfig::new(4, 4096, 4, 4);
    dsm.input_packet_records = 4096;
    let data = generate_rec128(n, KeyDist::Uniform, 3);
    let splitters = choose_splitters(&data, dsm.alpha);
    println!(
        "BENCH-storage: multi-disk ASUs on DSM-Sort (n={n}, α={}, β={}, H=2, D=2, c=4, 10 MB/s spindles)",
        dsm.alpha, dsm.beta
    );

    let mut report = Report::new("BENCH_storage.json");

    // Cell 1: distribute-phase scaling over spindle count.
    println!("-- pass 1 (distribute) vs spindles per ASU --");
    let runs: Vec<(usize, f64, f64, f64)> = D_SWEEP
        .par_iter()
        .map(|&d| {
            let cfg = cluster(spec(d).with_auto_read_ahead());
            let per_asu = split_across_asus(&data, cfg.asus);
            let p1 = run_pass1(&cfg, per_asu, splitters.clone(), &dsm, LoadMode::Static)
                .expect("pass 1");
            let hit = p1
                .report
                .nodes
                .iter()
                .find(|nr| matches!(nr.id, NodeId::Asu(_)))
                .map(|nr| nr.pool.hit_rate() * 100.0)
                .unwrap_or(0.0);
            (
                d,
                p1.report.makespan.as_secs_f64(),
                per_asu_mb_s(&p1.report),
                hit,
            )
        })
        .collect();
    let mut table = Table::new("disks makespan_s per_asu_mb_s pool_hit_pct");
    for &(d, mk, tp, hit) in &runs {
        table.row(vec![d.into(), fx(mk, 6), fx(tp, 3), fx(hit, 2)]);
    }
    report.list("distribute_scaling", &table);
    let tp_of = |d: usize| runs.iter().find(|r| r.0 == d).expect("swept").2;
    let ratio_d4 = tp_of(4) / tp_of(1);
    let ratio_d8 = tp_of(8) / tp_of(1);
    report.put("throughput_ratio_d4_over_d1", fx(ratio_d4, 3));
    report.put("throughput_ratio_d8_over_d1", fx(ratio_d8, 3));

    // Cell 2: read-ahead ablation on the merge phase (fixed d = 2,
    // equal pool size). Pass-1 runs are produced once and merged twice.
    println!("-- pass 2 (merge) read-ahead ablation at d=2 --");
    let base = cluster(spec(2));
    let p1 = run_pass1(
        &base,
        split_across_asus(&data, base.asus),
        splitters.clone(),
        &dsm,
        LoadMode::Static,
    )
    .expect("pass 1 for ablation");
    let merge_makespan = |ra: usize| {
        let mut cfg = cluster(spec(2).with_read_ahead(ra));
        // The merge interleaves reads from γ₁ different runs, so the
        // drive's sequential prefetch window does not apply: staging is
        // the pool's job (the knob under ablation), not the device's.
        cfg.disk.readahead_window = 0;
        run_pass2(&cfg, p1.runs_per_asu.clone(), splitters.clone(), &dsm)
            .expect("pass 2")
            .report
            .makespan
            .as_secs_f64()
    };
    let ra0 = merge_makespan(0);
    let ra4 = merge_makespan(4);
    let reduction_pct = (1.0 - ra4 / ra0) * 100.0;
    report.put(
        "merge_read_ahead",
        obj([
            ("ra0_makespan_s", fx(ra0, 6)),
            ("ra4_makespan_s", fx(ra4, 6)),
            ("reduction_pct", fx(reduction_pct, 2)),
        ]),
    );

    // Cell 3: pool-size sweep on pass 1 at d = 2.
    println!("-- pass 1 pool-size sweep at d=2 --");
    let pool_runs: Vec<(usize, f64, u64, u64)> = POOL_SWEEP
        .par_iter()
        .map(|&frames| {
            let mut s = spec(2).with_auto_read_ahead();
            s.pool_frames = frames;
            let cfg = cluster(s);
            let p = run_pass1(
                &cfg,
                split_across_asus(&data, cfg.asus),
                splitters.clone(),
                &dsm,
                LoadMode::Static,
            )
            .expect("pool sweep");
            let (wb, wb_blocks) = p
                .report
                .nodes
                .iter()
                .find(|nr| matches!(nr.id, NodeId::Asu(_)))
                .map(|nr| (nr.pool.writebacks, nr.pool.writeback_blocks))
                .unwrap_or((0, 0));
            (frames, p.report.makespan.as_secs_f64(), wb, wb_blocks)
        })
        .collect();
    let mut table = Table::new("frames makespan_s writebacks writeback_blocks");
    for &(frames, mk, wb, wbb) in &pool_runs {
        table.row(vec![frames.into(), fx(mk, 6), wb.into(), wbb.into()]);
    }
    report.list("pool_sweep", &table);
    report.write()
}
