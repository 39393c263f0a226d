//! **BENCH-par-sim** — partitioned parallel kernel scaling.
//!
//! Sweeps an H×D grid of cluster shapes (up to a 256-node emulation)
//! × worker thread counts {1, 2, 4, 8} × workload variants over the
//! full two-pass DSM-Sort — load-managed placement (`Managed` +
//! round-robin routing), so every host carries sorters and the
//! partitions stay busy. Variants per shape:
//!
//! * `plain` — fault-free,
//! * `f` — a mid-pass-1 ASU crash (with recovery) plus a lossy
//!   host→ASU link, exercising the static fault timelines under
//!   partitions,
//! * `fb` — the same fault plan with the snapshot balancer armed.
//!
//! Per cell the bench reports virtual makespan, total dispatched events
//! and the **critical path** (the busiest partition's dispatch count):
//! `dispatch_speedup = dispatched / critical_dispatched` is the
//! kernel's virtual parallelism — the end-to-end speedup an ideal
//! one-core-per-partition machine gets. Gates: ≥4.5× fault-free at 8
//! threads and ≥2× on the faulted+balanced run at 4 threads, both on the
//! 256-node cell; the first is the headline. The JSON artifact also
//! carries each parallel cell's window-width histogram (virtual ns,
//! deterministic) and barrier-wait histogram (wall-clock — **not**
//! deterministic; `check.sh` strips it, and `host_cores`, before
//! diffing). All other figures are virtual-time quantities and
//! byte-deterministic.

use lmas_bench::{fx, scaled_n, GateFailure, Json, Report, Table};
use lmas_core::{generate_rec128, KeyDist, RoutingPolicy};
use lmas_emulator::{asu_index, BalanceSpec, ClusterConfig, FaultSpec};
use lmas_sim::{FaultPlan, LogHist, SimDuration, SimTime};
use lmas_sort::{run_dsm_sort, run_dsm_sort_faulty, DsmConfig, LoadMode};

/// (hosts, asus) cells: 20, 64, and 256 emulated nodes.
const GRID: [(usize, usize); 3] = [(4, 16), (16, 48), (64, 192)];
const THREADS: [usize; 4] = [1, 2, 4, 8];
const VARIANTS: [&str; 3] = ["plain", "f", "fb"];

/// Sum a per-pass figure over every pass of the sort.
fn per_pass<R: lmas_core::Record>(
    reports: &[&lmas_emulator::EmulationReport<R>],
    f: impl Fn(&lmas_emulator::EmulationReport<R>) -> u64,
) -> u64 {
    reports.iter().map(|r| f(r)).sum()
}

/// A log2 histogram as `{"<bucket>": count}` over its non-empty
/// buckets, bucket = floor(log2(value)).
fn hist(h: &LogHist) -> Json {
    let buckets = h.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
    Json::Obj(buckets.map(|(i, &c)| (i.to_string(), c.into())).collect())
}

fn main() -> Result<(), GateFailure> {
    let dsm = DsmConfig::new(4, 256, 8, 64);
    println!(
        "BENCH-par-sim: partitioned kernel scaling (H×D grid × threads × variants, two-pass DSM-Sort)"
    );
    let mut table = Table::new(
        "cell nodes variant threads partitions makespan_ns dispatched critical_dispatched \
         dispatch_speedup windows remote_messages remote_msg_rate \
         window_width_hist barrier_wait_hist",
    );
    // The gates, on the 256-node cell: ≥4.5× fault-free at 8 threads and
    // ≥2× faulted+balanced at 4 threads.
    let (mut plain8_ok, mut fb4_ok) = (None, None);
    for &(hosts, asus) in &GRID {
        // Work scales with the host count so every shape keeps each
        // node meaningfully busy.
        let n = scaled_n(8_192 * hosts as u64, 4_096);
        let data = generate_rec128(n, KeyDist::Uniform, 7);
        let base = ClusterConfig::era_2002(hosts, asus, 8.0);
        let mode = LoadMode::Managed(RoutingPolicy::RoundRobin);

        // The sequential fault-free run fixes the crash instant every
        // faulted variant of this shape reuses, whatever the scale.
        let seq = run_dsm_sort(&base, data.clone(), &dsm, mode).expect("par_scaling sort runs");
        let t_crash = SimTime(seq.pass1.makespan.0 / 3);
        let plan = FaultPlan::new()
            .crash(asu_index(&base, 1), t_crash)
            .recover(asu_index(&base, 1), t_crash + SimDuration::from_millis(40))
            .link_loss(0, asu_index(&base, 0), SimTime::ZERO, 0.05);
        let spec = FaultSpec::with_plan(plan);

        for &variant in &VARIANTS {
            for &threads in &THREADS {
                let mut cluster = base.with_threads(threads);
                if variant == "fb" {
                    cluster =
                        cluster.with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
                }
                let out = if variant == "plain" {
                    run_dsm_sort(&cluster, data.clone(), &dsm, mode)
                } else {
                    run_dsm_sort_faulty(&cluster, &spec, data.clone(), &dsm, mode)
                }
                .expect("par_scaling sort runs");
                let reports: Vec<_> = out.passes().collect();
                let dispatched = per_pass(&reports, |r| r.dispatched);
                // Sequential runs ARE their own critical path; parallel
                // runs report the busiest partition per pass.
                let critical = per_pass(&reports, |r| {
                    r.par
                        .as_ref()
                        .map_or(r.dispatched, |s| s.critical_dispatched)
                });
                let partitions = reports[0].par.as_ref().map_or(1, |s| s.partitions as u64);
                let windows = per_pass(&reports, |r| r.par.as_ref().map_or(0, |s| s.windows));
                let remote = per_pass(&reports, |r| {
                    r.par.as_ref().map_or(0, |s| s.remote_messages)
                });
                let mut window_width_hist = LogHist::new();
                let mut barrier_wait_hist = LogHist::new();
                for r in &reports {
                    if let Some(s) = &r.par {
                        window_width_hist.absorb(&s.window_width_hist);
                        barrier_wait_hist.absorb(&s.barrier_wait_hist);
                    }
                }
                let makespan_ns: u64 = reports.iter().map(|r| r.makespan.as_nanos()).sum();
                let speedup = dispatched as f64 / critical.max(1) as f64;
                if hosts + asus >= 256 && threads == 8 && variant == "plain" {
                    plain8_ok = Some(speedup >= 4.5);
                }
                if hosts + asus >= 256 && threads == 4 && variant == "fb" {
                    fb4_ok = Some(speedup >= 2.0);
                }
                table.row(vec![
                    format!("H{hosts}D{asus}_{variant}_t{threads}").into(),
                    (hosts + asus).into(),
                    variant.into(),
                    threads.into(),
                    partitions.into(),
                    makespan_ns.into(),
                    dispatched.into(),
                    critical.into(),
                    fx(speedup, 4),
                    windows.into(),
                    remote.into(),
                    fx(remote as f64 / dispatched.max(1) as f64, 4),
                    hist(&window_width_hist),
                    hist(&barrier_wait_hist),
                ]);
            }
        }
    }

    let mut report = Report::new("BENCH_par_sim.json");
    report.keyed(&table);
    report.headline(&["H64D192_plain_t8", "dispatch_speedup"]);
    let on_grid = "the grid carries a 256-node cell";
    report.gate(
        "verified_speedup_ge_4_5_at_8_threads_256_nodes",
        plain8_ok.expect(on_grid),
    );
    report.gate(
        "verified_faulted_balanced_speedup_ge_2_at_4_threads_256_nodes",
        fb4_ok.expect(on_grid),
    );
    report.write()
}
