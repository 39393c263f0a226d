//! The golden ledger: every pinned virtual-time fact of the workspace,
//! rendered once, as the transcript recorded in `results/determinism.txt`.
//!
//! Each section runs one pinned scenario and prints what it must
//! reproduce: makespans, dispatch counts and their census by message
//! kind, fault and repair counters, and FNV-1a folds of the output key
//! stream, the trace render, the queue statistics and the per-node
//! series. The lmas-bench unit test `ledger::tests::transcript_matches_results`
//! renders it in process and diffs it against the recorded file, so a
//! change that moves virtual time anywhere turns tier-1 red, naming the
//! first line that moved. The `determinism` binary prints the same
//! transcript; `scripts/check.sh` runs it twice in release and diffs
//! both runs against the file, which is what catches nondeterminism
//! across processes. A change that means to move virtual time
//! re-records the file with
//! `cargo run --release -p lmas-bench --bin determinism > results/determinism.txt`
//! and says why.
//!
//! Sections render in parallel and are concatenated in order. A value
//! keeps the FNV fold it was first recorded with: most hash key bytes
//! with [`lmas_sim::fnv1a`]; the multi-host and multi-pass pins hash the
//! keys' `Debug` text; the scheduler and routing pins fold with the
//! published FNV-64 prime.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    generate_rec128, generate_rec8, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId,
    Packet, Placement, Rec128, Rec8, Record, Router, RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, node_index, run_job_with_faults, run_jobs, BalanceSpec, ClusterConfig,
    EmulationReport, FaultSpec, FaultStats, Job, RepairSpec, StorageSpec, TenantJob,
};
use lmas_sim::{fnv1a, FaultPlan, SimDuration, SimTime};
use lmas_sort::{
    adaptive_alpha, adaptive_config, build_pass1_job, choose_splitters, planner_shape,
    run_dsm_sort, run_dsm_sort_faulty, run_dsm_sort_multipass, split_into_packets, DsmConfig,
    DsmOutcome, LoadMode,
};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! out {
    ($s:expr, $($arg:tt)*) => {
        writeln!($s, $($arg)*).expect("writing to a String")
    };
}

/// The whole transcript, section by section.
pub fn render() -> String {
    let sections: [fn() -> String; 21] = [
        sort_and_chaos,
        auto,
        par_and_parfault,
        parbal,
        || coded("coded", 1),
        || coded("parcoded", 4),
        || repair("repair", 1),
        || repair("parrepair", 4),
        sched,
        multi_host_faulted,
        multi_host_balanced,
        || backlog(RoutingPolicy::LoadAware),
        || backlog(RoutingPolicy::PowerOfTwoChoices),
        pickers,
        multipass,
        || sched_mix(false),
        || sched_mix(true),
        || terraflow(33, 4, 2),
        || terraflow(65, 6, 4),
        routing,
        sched_fault,
    ];
    sections
        .par_iter()
        .map(|section| section())
        .collect::<Vec<_>>()
        .concat()
}

/// Where `actual` first departs from `expected`, line by line: the
/// 1-based line number, the expected line and the actual one (`None`
/// past the end of either). `None` when the two are equal.
pub fn first_difference(
    expected: &str,
    actual: &str,
) -> Option<(usize, Option<String>, Option<String>)> {
    let (mut want, mut got) = (expected.lines(), actual.lines());
    let mut n = 0;
    loop {
        n += 1;
        match (want.next(), got.next()) {
            // Equal line by line: only a final newline can still differ.
            (None, None) => return (expected != actual).then_some((n, None, None)),
            (w, g) if w != g => return Some((n, w.map(str::to_owned), g.map(str::to_owned))),
            _ => {}
        }
    }
}

/// FNV-1a of the emitted key stream, key bytes little-endian.
fn keys_fnv(packets: &[Packet<Rec128>]) -> u64 {
    fnv1a(
        packets
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    )
}

/// FNV-1a of the emitted key stream as `Debug` text, `key,` per record.
fn debug_keys_fnv(packets: &[Packet<Rec128>]) -> u64 {
    fnv1a(
        packets
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| format!("{:?},", r.key()).into_bytes()),
    )
}

/// FNV-1a with the published FNV-64 prime, not [`fnv1a`]'s multiplier,
/// folding one whole value per step.
fn fnv64(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn trace_fnv<R: Record>(report: &EmulationReport<R>) -> u64 {
    fnv1a(report.trace.render().bytes())
}

/// `{p}output.records N {p}output.key_fnv H`, `p` a tag with its dot.
fn output_line(s: &mut String, p: &str, out: &DsmOutcome<Rec128>) {
    let records: usize = out.output.iter().map(|p| p.len()).sum();
    let fnv = keys_fnv(&out.output);
    out!(
        s,
        "{p}output.records {records} {p}output.key_fnv {fnv:016x}"
    );
}

/// `{p}{pass}.trace lines N fnv H` for both passes.
fn trace_lines<R: Record>(s: &mut String, p: &str, out: &DsmOutcome<R>) {
    for (pass, report) in [("pass1", &out.pass1), ("pass2", &out.pass2)] {
        let lines = report.trace.len();
        out!(
            s,
            "{p}{pass}.trace lines {lines} fnv {:016x}",
            trace_fnv(report)
        );
    }
}

fn fault_line(s: &mut String, tag: &str, f: FaultStats) {
    out!(
        s,
        "{tag}.fault retries {} nacks {} drops {} lost {} abandoned {} fenced {} detections {}",
        f.retries,
        f.nacks,
        f.drops,
        f.lost_queued_records,
        f.abandoned_records,
        f.fenced_instances,
        f.detections
    );
}

/// `{tag}.queues_fnv`: the FNV-1a of each pass's rendered queue
/// statistics (merged across partitions on a threaded run).
fn queues_line<R: Record>(s: &mut String, tag: &str, out: &DsmOutcome<R>) {
    let fnv = |r: &EmulationReport<R>| fnv1a(format!("{:?}", r.queue_stats).bytes());
    out!(
        s,
        "{tag}.queues_fnv {:016x} {:016x}",
        fnv(&out.pass1),
        fnv(&out.pass2)
    );
}

/// One `{tag}.{pass}.census` line per pass: the dispatch census, whose
/// rows sum to the pass's `dispatched`.
fn census_lines<R: Record>(s: &mut String, tag: &str, out: &DsmOutcome<R>) {
    let names = std::iter::once("pass1")
        .chain(out.repair.as_ref().map(|_| "repair"))
        .chain(out.intermediate.iter().map(|_| "merge"))
        .chain(std::iter::once("pass2"));
    for (pass, r) in names.zip(out.passes()) {
        out!(s, "{tag}.{pass}.census {}", r.census);
    }
}

/// The pinned sorts' input: 5 000 uniform records, seed 1.
fn pinned_data() -> Vec<Rec128> {
    generate_rec128(5_000, KeyDist::Uniform, 1)
}

fn pinned_dsm() -> DsmConfig {
    DsmConfig::new(4, 256, 4, 64)
}

const SR: LoadMode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);

/// The pinned fault-free sort, then the same sort under a pinned fault
/// plan (crash one ASU a third into pass 1, a lossy host→ASU link).
/// Everything the fault layer does draws from seeded state.
fn sort_and_chaos() -> String {
    let mut s = String::new();
    let cluster = ClusterConfig::era_2002(1, 2, 8.0).with_trace(4096);
    let out = run_dsm_sort(&cluster, pinned_data(), &pinned_dsm(), LoadMode::Static)
        .expect("pinned sort runs");
    out!(s, "pass1.makespan_ns {}", out.pass1.makespan.as_nanos());
    out!(s, "pass2.makespan_ns {}", out.pass2.makespan.as_nanos());
    out!(s, "total_ns {}", out.total.as_nanos());
    out!(s, "pass1.dispatched {}", out.pass1.dispatched);
    out!(s, "pass2.dispatched {}", out.pass2.dispatched);
    let (r1, r2) = (out.pass1.records_processed, out.pass2.records_processed);
    out!(s, "records_processed {r1} {r2}");
    output_line(&mut s, "", &out);
    for (pass, report) in [("pass1", &out.pass1), ("pass2", &out.pass2)] {
        let series = report.nodes.iter().flat_map(|nr| nr.cpu_series.iter());
        let util = fnv1a(series.flat_map(|u| u.to_bits().to_le_bytes()));
        out!(s, "{pass}.cpu_series_fnv {util:016x}");
        let lines = report.trace.len();
        out!(
            s,
            "{pass}.trace lines {lines} fnv {:016x}",
            trace_fnv(report)
        );
    }
    queues_line(&mut s, "sort", &out);
    census_lines(&mut s, "sort", &out);

    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let plan = FaultPlan::new()
        .crash(asu_index(&cluster, 1), SimTime(out.pass1.makespan.0 / 3))
        .link_loss(0, asu_index(&cluster, 0), SimTime::ZERO, 0.05);
    let spec = FaultSpec::with_plan(plan);
    let chaos = run_dsm_sort_faulty(&cluster, &spec, pinned_data(), &pinned_dsm(), SR)
        .expect("pinned chaos sort runs");
    out!(
        s,
        "chaos.pass1.makespan_ns {}",
        chaos.pass1.makespan.as_nanos()
    );
    out!(s, "chaos.total_ns {}", chaos.total.as_nanos());
    out!(s, "chaos.pass1.dispatched {}", chaos.pass1.dispatched);
    fault_line(&mut s, "chaos", chaos.pass1.fault);
    out!(s, "chaos.recovered_records {}", chaos.recovered_records);
    output_line(&mut s, "chaos.", &chaos);
    queues_line(&mut s, "chaos", &chaos);
    census_lines(&mut s, "chaos", &chaos);
    s
}

/// Planner-chosen placement with the runtime balancer armed. The plan
/// search is RNG-free and the balancer samples at virtual instants.
fn auto() -> String {
    let mut s = String::new();
    let cluster = ClusterConfig::era_2002(2, 4, 8.0)
        .with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
    let auto = run_dsm_sort(&cluster, pinned_data(), &pinned_dsm(), LoadMode::Auto)
        .expect("pinned auto sort runs");
    out!(
        s,
        "auto.pass1.makespan_ns {}",
        auto.pass1.makespan.as_nanos()
    );
    out!(
        s,
        "auto.pass2.makespan_ns {}",
        auto.pass2.makespan.as_nanos()
    );
    out!(s, "auto.total_ns {}", auto.total.as_nanos());
    out!(
        s,
        "auto.reweights {} {}",
        auto.pass1.reweights,
        auto.pass2.reweights
    );
    let plan = auto.plan.as_ref().expect("auto carries its plan");
    out!(
        s,
        "auto.plan k {} predicted_ns {} {}",
        plan.sorters_per_subset,
        plan.pass1_predicted.as_nanos(),
        plan.pass2_predicted.as_nanos()
    );
    out!(
        s,
        "auto.plan.report_fnv {:016x} {:016x}",
        fnv1a(plan.pass1_report_json.bytes()),
        fnv1a(plan.pass2_report_json.bytes())
    );
    output_line(&mut s, "auto.", &auto);
    census_lines(&mut s, "auto", &auto);
    s
}

/// The two-host cluster of the partitioned sections: threads = 4 on two
/// hosts gives two partitions, real OS threads and real barriers.
fn par_cluster() -> ClusterConfig {
    ClusterConfig::era_2002(2, 4, 8.0)
        .with_trace(4096)
        .with_threads(4)
}

/// The pinned sort through the partitioned engine, then a pinned chaos
/// plan (ASU crash, recovery, lossy link) through it: static fault
/// timelines and per-partition controllers. The window-width histogram
/// is virtual time and is pinned; the barrier-wait histogram is wall
/// clock and is not.
fn par_and_parfault() -> String {
    let mut s = String::new();
    let par = run_dsm_sort(
        &par_cluster(),
        pinned_data(),
        &pinned_dsm(),
        LoadMode::Static,
    )
    .expect("pinned parallel sort runs");
    let stats = par.pass1.par.expect("multi-host threaded run parallelizes");
    out!(
        s,
        "par.partitions {} par.windows {} par.remote_messages {}",
        stats.partitions,
        stats.windows,
        stats.remote_messages
    );
    let critical = stats.critical_dispatched;
    out!(
        s,
        "par.dispatched {} par.critical_dispatched {critical}",
        par.pass1.dispatched
    );
    out!(s, "par.pass1.makespan_ns {}", par.pass1.makespan.as_nanos());
    out!(s, "par.pass2.makespan_ns {}", par.pass2.makespan.as_nanos());
    out!(s, "par.total_ns {}", par.total.as_nanos());
    output_line(&mut s, "par.", &par);
    trace_lines(&mut s, "par.", &par);
    queues_line(&mut s, "par", &par);
    census_lines(&mut s, "par", &par);

    let cluster = par_cluster();
    let t_crash = SimTime(par.pass1.makespan.0 / 3);
    let asu1 = asu_index(&cluster, 1);
    let plan = FaultPlan::new()
        .crash(asu1, t_crash)
        .recover(asu1, t_crash + SimDuration::from_millis(40))
        .link_loss(0, asu_index(&cluster, 0), SimTime::ZERO, 0.05);
    let spec = FaultSpec::with_plan(plan);
    let pf = run_dsm_sort_faulty(&cluster, &spec, pinned_data(), &pinned_dsm(), SR)
        .expect("pinned faulted parallel sort runs");
    let stats = pf
        .pass1
        .par
        .as_ref()
        .expect("faulted run uses the partitioned engine");
    assert!(
        pf.pass1.par_fallback.is_none(),
        "no fallback reason on an eligible faulted run"
    );
    out!(
        s,
        "parfault.partitions {} parfault.windows {} parfault.remote_messages {}",
        stats.partitions,
        stats.windows,
        stats.remote_messages
    );
    let critical = stats.critical_dispatched;
    out!(
        s,
        "parfault.dispatched {} parfault.critical_dispatched {critical}",
        pf.pass1.dispatched
    );
    let widths = stats
        .window_width_hist
        .buckets
        .iter()
        .flat_map(|c| c.to_le_bytes());
    out!(s, "parfault.window_width_fnv {:016x}", fnv1a(widths));
    out!(
        s,
        "parfault.pass1.makespan_ns {}",
        pf.pass1.makespan.as_nanos()
    );
    out!(s, "parfault.total_ns {}", pf.total.as_nanos());
    fault_line(&mut s, "parfault", pf.pass1.fault);
    out!(s, "parfault.recovered_records {}", pf.recovered_records);
    output_line(&mut s, "parfault.", &pf);
    trace_lines(&mut s, "parfault.", &pf);
    queues_line(&mut s, "parfault", &pf);
    census_lines(&mut s, "parfault", &pf);
    s
}

/// The snapshot balancer through the partitioned engine: instances
/// self-report backlog on the sampling grid and one balancer actor
/// reweights from the previous window's snapshot.
fn parbal() -> String {
    let mut s = String::new();
    let cluster = par_cluster().with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
    let pb = run_dsm_sort(&cluster, pinned_data(), &pinned_dsm(), SR)
        .expect("pinned balanced parallel sort runs");
    let stats = pb
        .pass1
        .par
        .as_ref()
        .expect("balanced run uses the partitioned engine");
    assert!(
        pb.pass1.par_fallback.is_none(),
        "no fallback reason on a snapshot-balanced run"
    );
    out!(
        s,
        "parbal.partitions {} parbal.windows {} parbal.remote_messages {}",
        stats.partitions,
        stats.windows,
        stats.remote_messages
    );
    out!(
        s,
        "parbal.reweights {} {}",
        pb.pass1.reweights,
        pb.pass2.reweights
    );
    out!(
        s,
        "parbal.pass1.makespan_ns {}",
        pb.pass1.makespan.as_nanos()
    );
    out!(s, "parbal.total_ns {}", pb.total.as_nanos());
    output_line(&mut s, "parbal.", &pb);
    trace_lines(&mut s, "parbal.", &pb);
    queues_line(&mut s, "parbal", &pb);
    census_lines(&mut s, "parbal", &pb);
    s
}

/// The pinned sort with a coded distribute edge (r = 2). Coded frames
/// are cut by deterministic FCFS buffering, so every figure holds at
/// every thread count.
fn coded(tag: &str, threads: usize) -> String {
    let mut s = String::new();
    let cluster = ClusterConfig::era_2002(2, 4, 8.0).with_threads(threads);
    let dsm = DsmConfig::new(8, 256, 4, 64).with_coded(2);
    let c = run_dsm_sort(&cluster, pinned_data(), &dsm, LoadMode::Static)
        .expect("pinned coded sort runs");
    if threads > 1 {
        assert!(
            c.pass1.par.is_some(),
            "multi-host threaded coded run parallelizes"
        );
        assert!(
            c.pass1.par_fallback.is_none(),
            "no fallback reason on a coded run"
        );
    }
    out!(s, "{tag}.pass1.makespan_ns {}", c.pass1.makespan.as_nanos());
    out!(s, "{tag}.pass2.makespan_ns {}", c.pass2.makespan.as_nanos());
    out!(s, "{tag}.total_ns {}", c.total.as_nanos());
    out!(
        s,
        "{tag}.dispatched {} {}",
        c.pass1.dispatched,
        c.pass2.dispatched
    );
    let asus = c
        .pass1
        .nodes
        .iter()
        .filter(|nr| matches!(nr.id, NodeId::Asu(_)));
    let asu_tx: u64 = asus.map(|nr| nr.nic_bytes_tx).sum();
    out!(s, "{tag}.pass1.asu_nic_bytes_tx {asu_tx}");
    output_line(&mut s, &format!("{tag}."), &c);
    census_lines(&mut s, tag, &c);
    s
}

/// A seeded Poisson fault schedule with background re-replication on:
/// source on host 0 → relay on every ASU → sink on the last host, repair
/// at 256 MiB/s over 96 × 256 KiB blocks at replication target 3.
/// Same-instant completions apply in canonical order, so every figure
/// holds at every thread count.
fn repair(tag: &str, threads: usize) -> String {
    const HOSTS: usize = 4;
    const ASUS: usize = 8;
    let cfg = ClusterConfig::era_2002(HOSTS, ASUS, 8.0).with_threads(threads);
    let plan = FaultPlan::poisson(
        0xD15C,
        HOSTS..HOSTS + ASUS,
        SimDuration::from_millis(200),
        SimDuration::from_millis(10),
        SimDuration::from_millis(160),
    );
    let rs = RepairSpec::new(96, 3, 256 << 10, 256.0 * (1u64 << 20) as f64)
        .with_sampling(SimDuration::from_millis(10));
    let spec = FaultSpec::with_plan(plan).with_repair(rs);
    let relay = |_| -> Box<dyn Functor<Rec8>> {
        Box::new(MapFunctor::new("relay", Work::compares(4), |r: Rec8| r))
    };
    let data: Vec<Rec8> = (0..2_000u32).map(|i| Rec8 { key: i, tag: i }).collect();
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, relay);
    let mid = g.add_stage(ASUS, relay);
    let dst = g.add_stage(1, relay);
    g.connect(src, mid, RoutingPolicy::RoundRobin, EdgeKind::Set)
        .unwrap();
    g.connect(mid, dst, RoutingPolicy::Static, EdgeKind::Set)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Host(0));
    for i in 0..ASUS {
        placement.assign(mid, i, NodeId::Asu(i));
    }
    placement.assign(dst, 0, NodeId::Host(HOSTS - 1));
    let inputs = BTreeMap::from([((src.0, 0usize), packetize(data, 50))]);
    let job = Job {
        graph: g,
        placement,
        inputs,
    };
    let r = run_job_with_faults(&cfg, &spec, job).expect("pinned repair run succeeds");
    if threads > 1 {
        assert!(
            r.par.is_some(),
            "multi-host threaded repair run parallelizes"
        );
        assert!(
            r.par_fallback.is_none(),
            "no fallback reason on a repair run"
        );
    }

    let mut s = String::new();
    out!(s, "{tag}.makespan_ns {}", r.makespan.as_nanos());
    out!(s, "{tag}.dispatched {}", r.dispatched);
    let c = r.repair;
    out!(
        s,
        "{tag}.repair enqueued {} completed {} reassigned {} wasted {} \
         blocks_lost {} bytes_repaired {}",
        c.enqueued,
        c.completed,
        c.reassigned,
        c.wasted,
        c.blocks_lost,
        c.bytes_repaired
    );
    out!(s, "{tag}.replica_hist {:?}", r.replica_hist);
    let traj = fnv1a(r.repair_trajectory.iter().flat_map(|p| {
        let hist = p.hist.iter().flat_map(|c| c.to_le_bytes());
        p.at.0.to_le_bytes().into_iter().chain(hist)
    }));
    out!(
        s,
        "{tag}.trajectory points {} fnv {traj:016x}",
        r.repair_trajectory.len()
    );
    out!(s, "{tag}.src_bytes {:?}", r.repair_src_bytes);
    out!(s, "{tag}.detections {}", r.fault.detections);
    out!(s, "{tag}.census {}", r.census);
    s
}

/// A small multi-tenant run (seeded Poisson arrivals, admission gate),
/// naive and residual-planned placement. Gate decisions are pure
/// functions of predicted footprints and the calendar.
fn sched() -> String {
    let mut s = String::new();
    let cluster = ClusterConfig::era_2002(4, 4, 2.0);
    let dsm = DsmConfig::new(2, 256, 4, 64);
    let arrivals = lmas_sched::ArrivalSpec::poisson(
        0x5C4ED,
        2,
        SimDuration::from_millis(8),
        SimDuration::from_millis(40),
        &[1],
    );
    for (tag, aware) in [("sched.naive", false), ("sched.aware", true)] {
        let spec = lmas_sched::SchedSpec::new(arrivals.clone(), vec![2_000])
            .with_policy(lmas_sched::Policy::WeightedFair)
            .with_quota(2)
            .with_queue_cap(16)
            .with_load_limit(1.5)
            .with_aware(aware)
            .with_seed(0x5C4ED);
        let out = lmas_sched::run_scheduled(&cluster, &dsm, &spec).expect("pinned scheduled run");
        let (jobs, done, rejected) = (out.jobs.len(), out.completed(), out.rejections.len());
        out!(s, "{tag}.jobs {jobs} completed {done} rejected {rejected}");
        out!(s, "{tag}.makespan_ns {}", out.makespan.as_nanos());
        let json = fnv1a(out.to_json().bytes());
        out!(s, "{tag}.events {} json_fnv {json:016x}", out.events.len());
    }
    s
}

/// Faulted multi-host sort (seed 3): a crash half-way through the
/// fault-free pass 1, a recovery 40 virtual ms later and a lossy link,
/// sequential and on four threads (two partitions). The repair pass's
/// makespan moves if the lost records reach `split_across_asus` in any
/// order but ascending tag.
fn multi_host_faulted() -> String {
    let dsm = pinned_dsm();
    let base = ClusterConfig::era_2002(2, 4, 8.0).with_trace(2048);
    let data = generate_rec128(4_000, KeyDist::Uniform, 3);
    let golden = run_dsm_sort(&base, data.clone(), &dsm, SR).expect("fault-free run");
    let t_crash = SimTime(golden.pass1.makespan.0 / 2);
    let asu1 = asu_index(&base, 1);
    let plan = FaultPlan::new()
        .crash(asu1, t_crash)
        .recover(asu1, t_crash + SimDuration::from_millis(40))
        .link_loss(0, asu_index(&base, 0), SimTime::ZERO, 0.05);
    let spec = FaultSpec::with_plan(plan);
    let seq = run_dsm_sort_faulty(&base, &spec, data.clone(), &dsm, SR).expect("runs");
    let par = run_dsm_sort_faulty(&base.with_threads(4), &spec, data, &dsm, SR).expect("runs");

    let mut s = String::new();
    for (tag, out) in [("seq", &seq), ("t4", &par)] {
        let repair = out.repair.as_ref().expect("records were lost");
        out!(
            s,
            "mhfault.{tag}.repair recovered {} makespan_ns {} total_ns {}",
            out.recovered_records,
            repair.makespan.as_nanos(),
            out.total.as_nanos()
        );
    }
    let f = par.pass1.fault;
    let (p1, p2) = (&par.pass1, &par.pass2);
    out!(
        s,
        "mhfault.t4 pass1_ns={} pass2_ns={} dispatched={} {}",
        p1.makespan.as_nanos(),
        p2.makespan.as_nanos(),
        p1.dispatched,
        p2.dispatched
    );
    out!(
        s,
        "mhfault.t4 fault retries={} nacks={} drops={} lost={} abandoned={} fenced={} \
         detections={}",
        f.retries,
        f.nacks,
        f.drops,
        f.lost_queued_records,
        f.abandoned_records,
        f.fenced_instances,
        f.detections
    );
    out!(
        s,
        "mhfault.t4 recovered={} lost_asus={} out_fnv={:#018x}",
        par.recovered_records,
        par.lost_asus.len(),
        debug_keys_fnv(&par.output)
    );
    out!(
        s,
        "mhfault.t4 trace1={} {:#018x} trace2={} {:#018x}",
        p1.trace.len(),
        trace_fnv(p1),
        p2.trace.len(),
        trace_fnv(p2)
    );
    s
}

/// Snapshot-balanced multi-host sort (seed 11, skewed keys) on four
/// threads, with a 256-record deadband.
fn multi_host_balanced() -> String {
    let balancer = BalanceSpec::every(SimDuration::from_micros(500)).with_deadband(256);
    let cluster = ClusterConfig::era_2002(2, 4, 8.0)
        .with_trace(2048)
        .with_balancer(balancer)
        .with_threads(4);
    let data = generate_rec128(4_000, KeyDist::Exponential { rate: 4.0 }, 11);
    let par = run_dsm_sort(&cluster, data, &pinned_dsm(), SR).expect("runs");
    let mut s = String::new();
    out!(
        s,
        "mhbal.t4 pass1_ns={} pass2_ns={} total_ns={} dispatched={} {} reweights={} {} \
         out_fnv={:#018x}",
        par.pass1.makespan.as_nanos(),
        par.pass2.makespan.as_nanos(),
        par.total.as_nanos(),
        par.pass1.dispatched,
        par.pass2.dispatched,
        par.pass1.reweights,
        par.pass2.reweights,
        debug_keys_fnv(&par.output),
    );
    s
}

/// A run whose routing reads the live backlog: a source on ASU 0 feeds
/// a two-replica stage, replica 0 on the 8× slower ASU 1 and replica 1
/// on host 0. Fault-free, then under a plan that crashes the host
/// replica's node a tenth of the way in (clearing its queue), brings it
/// back a fifth of the makespan later and drops 5 % of the source's
/// frames to the host, so bounces and drops roll back the sender's
/// optimistic charges.
fn backlog(routing: RoutingPolicy) -> String {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let run = |spec: &FaultSpec| {
        let data = generate_rec8(30_000, KeyDist::Uniform, 13);
        let mut g: FlowGraph<Rec8> = FlowGraph::new();
        let src = g.add_source_stage(1, |_| {
            Box::new(MapFunctor::new("id", Work::ZERO, |r: Rec8| r)) as Box<dyn Functor<Rec8>>
        });
        let work = g.add_stage(2, |_| {
            Box::new(MapFunctor::new("burn", Work::compares(64), |r: Rec8| r))
                as Box<dyn Functor<Rec8>>
        });
        g.connect(src, work, routing, EdgeKind::Set).unwrap();
        let mut placement = Placement::new();
        placement.assign(src, 0, NodeId::Asu(0));
        placement.assign(work, 0, NodeId::Asu(1));
        placement.assign(work, 1, NodeId::Host(0));
        let inputs = BTreeMap::from([((0usize, 0usize), packetize(data, 200))]);
        let job = Job {
            graph: g,
            placement,
            inputs,
        };
        run_job_with_faults(&cfg, spec, job).expect("backlog-routed run")
    };
    let clean = run(&FaultSpec::none());
    let tenth = clean.makespan.as_nanos() / 10;
    let host0 = node_index(&cfg, NodeId::Host(0));
    let plan = FaultPlan::new()
        .crash(host0, SimTime(tenth))
        .recover(host0, SimTime(3 * tenth))
        .link_loss(asu_index(&cfg, 0), host0, SimTime::ZERO, 0.05);
    let faulted = run(&FaultSpec::with_plan(plan));

    let mut s = String::new();
    for (tag, r) in [("clean", &clean), ("faulted", &faulted)] {
        let f = r.fault;
        out!(
            s,
            "backlog.{routing:?}.{tag} makespan {} dispatched {} fault {} {} {} {} {} {} {} \
             queues_fnv {:016x}",
            r.makespan.as_nanos(),
            r.dispatched,
            f.retries,
            f.nacks,
            f.drops,
            f.lost_queued_records,
            f.abandoned_records,
            f.fenced_instances,
            f.detections,
            fnv1a(format!("{:?}", r.queue_stats).bytes()),
        );
    }
    s
}

/// The closed-form pickers behind Figure 9's adaptive series, over a
/// grid of cluster shapes that includes background load and striped
/// storage (which no figure exercises). Per cluster `H D c background
/// spindles`: `adaptive_alpha` at β ∈ {1024, 8192}; `adaptive_config`'s
/// `(α, γ₁, γ₂)` at β = 1024, γ₁ ≤ 16 and n ∈ {100, 2^20}; and the
/// bounded `(γ₁, γ₂)` split of γ ∈ {1, 2, 64, 1000} (major) under ASU
/// buffer bounds {1, 8, 64}.
fn pickers() -> String {
    let mut s = String::new();
    for hosts in [1, 2] {
        for asus in [2, 4, 16, 64] {
            for c in [4.0, 8.0] {
                for loaded in [false, true] {
                    for disks in [1, 2] {
                        let mut cluster = ClusterConfig::era_2002(hosts, asus, c)
                            .with_storage(StorageSpec::striped(disks));
                        if loaded {
                            cluster = cluster.with_background(0.5, 0.25);
                        }
                        let alpha = [1024, 1 << 13].map(|b| adaptive_alpha::<Rec128>(&cluster, b));
                        let config = [100, 1 << 20].map(|n| {
                            let dsm = adaptive_config::<Rec128>(&cluster, n, 1024, 16);
                            (dsm.alpha, dsm.gamma1, dsm.gamma2)
                        });
                        let shape = planner_shape(&cluster);
                        let split: Vec<(u64, u64)> = [1, 2, 64, 1000]
                            .into_iter()
                            .flat_map(|gamma| [1, 8, 64].map(|bound| (gamma, bound)))
                            .map(|(g, b)| shape.pick_gamma_split_bounded(g, b, Rec128::SIZE))
                            .collect();
                        out!(
                            s,
                            "picker {hosts} {asus} {c} {loaded} {disks} alpha {alpha:?} \
                             config {config:?} split {split:?}"
                        );
                    }
                }
            }
        }
    }
    s
}

/// A γ-starved multi-pass sort: total, every pass's makespan in pass
/// order, the intermediate-pass count and the emitted key stream.
fn multipass() -> String {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let dsm = DsmConfig::new(2, 64, 2, 4);
    let data = generate_rec128(8_000, KeyDist::Uniform, 31);
    let out = run_dsm_sort_multipass(&cluster, data, &dsm, LoadMode::Static).expect("sort");
    let intermediate: Vec<u64> = out
        .intermediate
        .iter()
        .map(|r| r.makespan.as_nanos())
        .collect();
    let mut s = String::new();
    out!(
        s,
        "multipass total_ns={} pass1_ns={} intermediate={} {:?} final_ns={} out_fnv={:#018x}",
        out.total.as_nanos(),
        out.pass1.makespan.as_nanos(),
        out.intermediate.len(),
        intermediate,
        out.pass2.makespan.as_nanos(),
        debug_keys_fnv(&out.output),
    );
    s
}

/// One ~200-job weighted-fair run at the benchmark's `sched_mix`
/// geometry: three tenants at about 0.9 offered utilization. The
/// planner, splitter selection, residual ledger and merged-graph build
/// all sit under `run_scheduled`.
fn sched_mix(aware: bool) -> String {
    let cluster = ClusterConfig::era_2002(4, 4, 2.0);
    let dsm = DsmConfig::new(2, 256, 4, 64);
    let arrivals = lmas_sched::ArrivalSpec::poisson(
        0x601D_5EED,
        3,
        SimDuration::from_micros(2_500),
        SimDuration::from_micros(170_000),
        &[3, 1],
    );
    let spec = lmas_sched::SchedSpec::new(arrivals, vec![2_500, 10_000])
        .with_policy(lmas_sched::Policy::WeightedFair)
        .with_quota(2)
        .with_queue_cap(64)
        .with_load_limit(1.2)
        .with_aware(aware)
        .with_seed(0x601D_5EED);
    let out = lmas_sched::run_scheduled(&cluster, &dsm, &spec).expect("scheduled run completes");
    let tag = if aware { "aware" } else { "naive" };
    let json = fnv64(out.to_json().bytes().map(u64::from));
    format!(
        "schedmix.{tag} jobs {} json_fnv {json:016x}\n",
        out.jobs.len()
    )
}

/// A multi-tenant mix under a seeded Poisson crash plan with repair:
/// six pass-1 sorts from two tenants behind an FCFS gate with a quota
/// of one, so jobs queue across the crashes. Faults act only on
/// dispatched jobs; a job whose node was detected down completes by
/// fence, and one whose source's node came back before detection
/// completes when the revive ends that source's stream.
fn sched_fault() -> String {
    const HOSTS: usize = 2;
    const ASUS: usize = 4;
    let cluster = ClusterConfig::era_2002(HOSTS, ASUS, 8.0);
    let dsm = DsmConfig::new(2, 256, 4, 64);
    let plan = FaultPlan::poisson(
        0x5FA17,
        0..HOSTS + ASUS,
        SimDuration::from_millis(60),
        SimDuration::from_millis(30),
        SimDuration::from_millis(60),
    );
    let rs = RepairSpec::new(32, 2, 256 << 10, 256.0 * (1u64 << 20) as f64);
    let spec = FaultSpec::with_plan(plan).with_repair(rs);
    let mut run_cluster = cluster;
    let (mut jobs, mut shapes) = (Vec::new(), Vec::new());
    for j in 0..6u64 {
        let data = generate_rec8(2_000, KeyDist::Uniform, 0x5FA17 + j);
        let per_asu = split_into_packets(&data, ASUS, dsm.input_packet_records);
        let splitters = choose_splitters(&data, dsm.alpha);
        let built = build_pass1_job(&cluster, per_asu, splitters, &dsm, LoadMode::Static)
            .expect("pinned job builds");
        run_cluster = built.cluster;
        let tenant = j as usize % 2;
        shapes.push(lmas_sched::JobShape {
            tenant,
            cost_ns: 1,
            cpu_share: Vec::new(),
        });
        jobs.push(TenantJob {
            tenant,
            arrival: SimTime(j * 4_000_000),
            job: built.job,
        });
    }
    let (gate, rejections) = lmas_sched::PolicyGate::new(
        lmas_sched::GateConfig {
            policy: lmas_sched::Policy::Fcfs,
            tenants: 2,
            quota: 1,
            queue_cap: 8,
            load_limit: 1.0,
            weights: Vec::new(),
        },
        shapes,
    );
    let r = run_jobs(&run_cluster, &spec, jobs, Box::new(gate)).expect("pinned gated run");
    let n = r.jobs.len();
    let out = lmas_sched::SchedOutcome {
        policy: "fcfs",
        aware: false,
        jobs: r.jobs,
        kinds: vec![0; n],
        predicted_ns: vec![1; n],
        events: r.events,
        rejections: rejections.borrow().clone(),
        makespan: r.report.makespan,
        records_processed: r.report.records_processed,
    };
    let mut s = String::new();
    let json = fnv64(out.to_json().bytes().map(u64::from));
    out!(
        s,
        "schedfault jobs {n} completed {} rejected {} json_fnv {json:016x}",
        out.completed(),
        out.rejections.len()
    );
    fault_line(&mut s, "schedfault", r.report.fault);
    let c = r.report.repair;
    out!(
        s,
        "schedfault.repair enqueued {} completed {} reassigned {} wasted {} \
         blocks_lost {} bytes_repaired {}",
        c.enqueued,
        c.completed,
        c.reassigned,
        c.wasted,
        c.blocks_lost,
        c.bytes_repaired
    );
    s
}

/// TerraFlow on a `side`² fractal terrain: each step's makespan, the
/// watershed count, the label fold and step 3's dispatches.
/// `WatershedFunctor::cost` reads the time-forward queue's length per
/// packet, so step 3 moves if the queue ever holds a different number
/// of messages. The labels must also match the oracle.
fn terraflow(side: usize, seed: u64, asus: usize) -> String {
    let cluster = ClusterConfig::era_2002(1, asus, 8.0);
    let grid = lmas_gis::fractal_terrain(side, side, 0.55, seed);
    let mut dsm = DsmConfig::new(4, 128, 4, 64);
    dsm.input_packet_records = 128;
    let out = lmas_gis::run_terraflow(&cluster, &grid, &dsm, LoadMode::Static).expect("runs");
    let (t1, t2, t3) = out.times;
    let colors = fnv1a(out.colors.iter().flat_map(|c| c.to_le_bytes()));
    format!(
        "terraflow.{side} times_ns {} {} {} watersheds {} colors_fnv {colors:016x} \
         step3.dispatched {} oracle {}\n",
        t1.as_nanos(),
        t2.as_nanos(),
        t3.as_nanos(),
        out.watersheds,
        out.step3.dispatched,
        lmas_gis::matches_oracle(&grid, &out),
    )
}

/// 200 picks of every routing policy over five replicas with a
/// port-dependent backlog, under all-up and instance-2-down masks, with
/// no, unit and skewed weights: one fold per cell.
fn routing() -> String {
    type Up = fn(usize) -> bool;
    let masks: [(&str, Up); 2] = [("all", |_| true), ("down2", |i| i != 2)];
    let weightings: [&[f64]; 3] = [&[], &[1.0; 5], &[1.0, 3.0, 0.5, 2.0, 0.25]];
    let mut s = String::new();
    for policy in [
        RoutingPolicy::Static,
        RoutingPolicy::RoundRobin,
        RoutingPolicy::SimpleRandomization,
        RoutingPolicy::LoadAware,
        RoutingPolicy::PowerOfTwoChoices,
    ] {
        for (name, mask) in masks {
            let row = weightings.map(|weights| {
                let mut r = Router::new(policy, 11, 3);
                fnv64((0..200).map(|port| {
                    let p = port as u64;
                    let backlog = [p % 7, 3, p * 5 % 11, 5, p % 3];
                    let pick = r.pick_routed(5, port, &backlog, &[], weights, mask);
                    pick.expect("a live replica exists") as u64
                }))
            });
            out!(
                s,
                "routing.{policy:?}.{name} {:016x} {:016x} {:016x}",
                row[0],
                row[1],
                row[2]
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transcript recorded in `results/determinism.txt`, rendered in
    /// process: any virtual-time drift names its first line here.
    #[test]
    fn transcript_matches_results() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/determinism.txt");
        let expected = std::fs::read_to_string(path).expect("read results/determinism.txt");
        if let Some((line, want, got)) = first_difference(&expected, &render()) {
            panic!(
                "the ledger departs from results/determinism.txt at line {line}\n  \
                 expected: {want:?}\n  \
                 actual:   {got:?}\nre-record with `cargo run --release -p lmas-bench \
                 --bin determinism > results/determinism.txt` only if virtual time is \
                 meant to move"
            );
        }
    }

    #[test]
    fn first_difference_names_line_and_both_texts() {
        let base = "a 1\nb 2\nc 3\n";
        assert_eq!(first_difference(base, base), None);
        let some = |n, w: Option<&str>, g: Option<&str>| {
            Some((n, w.map(str::to_owned), g.map(str::to_owned)))
        };
        assert_eq!(
            first_difference(base, "a 1\nb 9\nc 3\n"),
            some(2, Some("b 2"), Some("b 9"))
        );
        assert_eq!(
            first_difference(base, "a 1\nb 2\n"),
            some(3, Some("c 3"), None)
        );
        assert_eq!(
            first_difference(base, "a 1\nb 2\nc 3\nd 4\n"),
            some(4, None, Some("d 4"))
        );
    }
}
