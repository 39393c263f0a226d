//! **BENCH-fleet-scale** — what a job's runtime state costs as the
//! fleet grows.
//!
//! One DSM-Sort (2^19 `Rec128` records, `DsmConfig::new(4, 256, 8, 64)`,
//! `Managed(RoundRobin)`) on fleets of 256, 1 024, 4 096 and 16 384
//! nodes at H:D = 1:3. The data is the same in every row; only the
//! fleet grows, so wall clock and memory measure the emulator's
//! per-node and per-edge state, not the sort. Each size runs fault-free
//! (`plain`) and under one plan (`f`): ASU 1 crashes at 2 ms and
//! recovers at 42 ms, and host 0 → ASU 0 drops 5 % of its packets.
//!
//! Per row: the median wall clock of [`RUNS`] runs, the process's peak
//! RSS (`VmHWM`), events (dispatches summed over every pass) and the
//! total virtual makespan. Each row runs in a child process of its own
//! under an address-space cap of [`VM_CAP_KIB`] (`ulimit -v`), so peak
//! RSS is the row's own and a state-size regression fails its row
//! instead of exhausting the machine; a row whose child fails reads
//! `completed: false`.
//!
//! Gates (tuned at full scale): at 16 384 nodes both plans complete in
//! at most 1.5 GiB peak RSS; from 4 096 to 16 384 nodes peak RSS grows
//! at most 4.5× under both plans, and fault-free wall clock at most
//! 4.5×. Faulted wall clock is recorded, not gated. Events and
//! makespans are deterministic; the wall-clock and RSS fields are not
//! (`check.sh` strips them before diffing).

use lmas_bench::{fx, obj, scaled_n, GateFailure, Json, Report, Table};
use lmas_core::{generate_rec128, KeyDist, RoutingPolicy};
use lmas_emulator::{asu_index, ClusterConfig, FaultSpec};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use lmas_sort::{run_dsm_sort, run_dsm_sort_faulty, DsmConfig, LoadMode};
use std::process::Command;
use std::time::Instant;

/// Fleet sizes (hosts + ASUs), H:D = 1:3.
const NODES: [usize; 4] = [256, 1_024, 4_096, 16_384];
const PLANS: [&str; 2] = ["plain", "f"];
/// Timed runs per row; the row reports their median.
const RUNS: usize = 3;
/// Address-space cap of a row's child process (4 GiB).
const VM_CAP_KIB: u64 = 4 << 20;
/// Gate bounds.
const RSS_CAP_MIB: f64 = 1_536.0;
const MAX_GROWTH: f64 = 4.5;

/// What one row's child reports.
struct RowOut {
    wall_ms: f64,
    rss_mib: f64,
    events: u64,
    makespan_ns: u64,
}

/// Run one row in this process and print it as `row <wall_ms>
/// <rss_kib> <events> <makespan_ns>`.
fn child(nodes: usize, plan: &str) {
    let hosts = nodes / 4;
    let cfg = ClusterConfig::era_2002(hosts, nodes - hosts, 8.0);
    let dsm = DsmConfig::new(4, 256, 8, 64);
    let mode = LoadMode::Managed(RoutingPolicy::RoundRobin);
    let spec = if plan == "plain" {
        FaultSpec::none()
    } else {
        let ms = |n: u64| SimTime(SimDuration::from_millis(n).as_nanos());
        FaultSpec::with_plan(
            FaultPlan::new()
                .crash(asu_index(&cfg, 1), ms(2))
                .recover(asu_index(&cfg, 1), ms(42))
                .link_loss(0, asu_index(&cfg, 0), SimTime::ZERO, 0.05),
        )
    };
    let data = generate_rec128(scaled_n(1 << 19, 1 << 14), KeyDist::Uniform, 7);
    let mut walls = Vec::with_capacity(RUNS);
    let mut figures = None;
    for _ in 0..RUNS {
        let input = data.clone();
        let t = Instant::now();
        let out = if plan == "plain" {
            run_dsm_sort(&cfg, input, &dsm, mode)
        } else {
            run_dsm_sort_faulty(&cfg, &spec, input, &dsm, mode)
        }
        .expect("fleet_scale sort runs");
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        let events: u64 = out.passes().map(|r| r.dispatched).sum();
        let run = (events, out.total.as_nanos());
        assert!(
            figures.is_none_or(|f| f == run),
            "a rerun moved virtual time"
        );
        figures = Some(run);
    }
    walls.sort_by(f64::total_cmp);
    let (events, makespan_ns) = figures.expect("at least one run");
    println!(
        "row {} {} {events} {makespan_ns}",
        walls[RUNS / 2],
        peak_rss_kib()
    );
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Run one row in a capped child process; `None` if it failed.
fn spawn_row(nodes: usize, plan: &str) -> Option<RowOut> {
    let exe = std::env::current_exe().expect("own executable path");
    let script = format!("ulimit -v {VM_CAP_KIB} && exec \"$0\" --row \"$1\" \"$2\"");
    let out = Command::new("sh")
        .arg("-c")
        .arg(script)
        .arg(exe)
        .arg(nodes.to_string())
        .arg(plan)
        .output()
        .expect("spawn a row");
    if !out.status.success() {
        eprintln!(
            "row n{nodes}_{plan} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        );
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find_map(|l| l.strip_prefix("row "))?;
    let f: Vec<&str> = line.split_whitespace().collect();
    Some(RowOut {
        wall_ms: f.first()?.parse().ok()?,
        rss_mib: f.get(1)?.parse::<f64>().ok()? / 1024.0,
        events: f.get(2)?.parse().ok()?,
        makespan_ns: f.get(3)?.parse().ok()?,
    })
}

fn main() -> Result<(), GateFailure> {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, nodes, plan] = &args[..] {
        if flag == "--row" {
            child(nodes.parse().expect("--row NODES PLAN"), plan);
            return Ok(());
        }
    }
    println!(
        "BENCH-fleet-scale: one DSM-Sort on growing fleets (H:D = 1:3), fault-free and faulted"
    );
    let mut table = Table::new(
        "row nodes hosts asus plan completed events makespan_ns wall_ms_p50 peak_rss_mib",
    );
    let mut report = Report::new("BENCH_fleet_scale.json");
    let mut rows = Vec::new();
    for &nodes in &NODES {
        for &plan in &PLANS {
            let r = spawn_row(nodes, plan);
            let hosts = nodes / 4;
            let (events, makespan_ns) = r.as_ref().map_or((0, 0), |r| (r.events, r.makespan_ns));
            let (wall, rss) = r.as_ref().map_or((0.0, 0.0), |r| (r.wall_ms, r.rss_mib));
            let fields: Vec<(&str, Json)> = vec![
                ("nodes", nodes.into()),
                ("hosts", hosts.into()),
                ("asus", (nodes - hosts).into()),
                ("plan", plan.into()),
                ("completed", r.is_some().into()),
                ("events", events.into()),
                ("makespan_ns", makespan_ns.into()),
            ];
            let measured = [("wall_ms_p50", fx(wall, 1)), ("peak_rss_mib", fx(rss, 1))];
            let key = format!("n{nodes}_{plan}");
            let cells = std::iter::once(key.clone().into())
                .chain(fields.iter().map(|(_, v)| v.clone()))
                .chain(measured.iter().map(|(_, v)| v.clone()));
            table.row(cells.collect());
            // The wall-clock figures nest one level down, so the row
            // renders a member per line and `check.sh` can strip them.
            let mut row = fields;
            row.push(("measured", obj(measured)));
            report.put(key, obj(row));
            rows.push(((nodes, plan), r));
        }
    }
    table.print();
    let get = |nodes: usize, plan: &str| {
        rows.iter()
            .find(|(k, _)| *k == (nodes, plan))
            .and_then(|(_, r)| r.as_ref())
    };
    let growth = |plan: &str, f: fn(&RowOut) -> f64| -> Option<f64> {
        Some(f(get(16_384, plan)?) / f(get(4_096, plan)?))
    };
    let rss_growth = PLANS.map(|p| growth(p, |r| r.rss_mib));
    let wall_growth = PLANS.map(|p| growth(p, |r| r.wall_ms));
    let rss_16k_ok = PLANS
        .iter()
        .all(|&p| get(16_384, p).is_some_and(|r| r.rss_mib <= RSS_CAP_MIB));

    let growth_obj = |g: [Option<f64>; 2]| {
        obj(PLANS
            .iter()
            .zip(g)
            .map(|(&p, g)| (p, fx(g.unwrap_or(0.0), 3))))
    };
    report.put("rss_growth_4096_to_16384", growth_obj(rss_growth));
    report.put("wall_growth_4096_to_16384", growth_obj(wall_growth));
    report.headline(&["n16384_plain", "measured", "peak_rss_mib"]);
    report.gate("verified_rss_le_1_5_gib_at_16384_nodes", rss_16k_ok);
    report.gate(
        "verified_rss_growth_le_4_5x_4096_to_16384",
        rss_growth
            .iter()
            .all(|g| g.is_some_and(|g| g <= MAX_GROWTH)),
    );
    report.gate(
        "verified_fault_free_wall_growth_le_4_5x_4096_to_16384",
        wall_growth[0].is_some_and(|g| g <= MAX_GROWTH),
    );
    report.write()
}
