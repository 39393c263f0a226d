//! Determinism gate: run the pinned seeded DSM-Sort emulation and print
//! every virtual-time observable. `scripts/check.sh` runs this twice and
//! diffs the output — any nondeterminism in the calendar, dispatch loop,
//! resource accounting, or trace rendering shows up as a diff — and diffs
//! each run against the recorded `results/determinism.txt`, so a change
//! that moves virtual time at all has to re-record that file on purpose.
//!
//! Every pinned run also prints its dispatch census (`{tag}.census`,
//! one line per pass): events by message kind, so the diff shows which
//! protocol a change in `dispatched` came from.
//!
//! The fault-free figures are also frozen in the sort crate's golden test
//! (`crates/sort/tests/golden.rs`), which pins them across simulator
//! rewrites.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    generate_rec128, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId, Placement, Rec8,
    Record, RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, run_job_with_faults, BalanceSpec, ClusterConfig, EmulationReport, FaultSpec, Job,
    RepairSpec,
};
use lmas_sim::{fnv1a, FaultPlan, SimDuration, SimTime};
use lmas_sort::{run_dsm_sort, run_dsm_sort_faulty, DsmConfig, DsmOutcome, LoadMode};
use std::collections::BTreeMap;

fn main() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0).with_trace(4096);
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let n = 5_000;
    let data = generate_rec128(n, KeyDist::Uniform, 1);
    let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::Static).expect("pinned sort runs");

    println!("pass1.makespan_ns {}", out.pass1.makespan.as_nanos());
    println!("pass2.makespan_ns {}", out.pass2.makespan.as_nanos());
    println!("total_ns {}", out.total.as_nanos());
    println!("pass1.dispatched {}", out.pass1.dispatched);
    println!("pass2.dispatched {}", out.pass2.dispatched);
    println!(
        "records_processed {} {}",
        out.pass1.records_processed, out.pass2.records_processed
    );
    let key_hash = fnv1a(
        out.output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    let out_records: usize = out.output.iter().map(|p| p.len()).sum();
    println!("output.records {out_records} output.key_fnv {key_hash:016x}");
    for (pass, report) in [("pass1", &out.pass1), ("pass2", &out.pass2)] {
        let util_hash = fnv1a(
            report
                .nodes
                .iter()
                .flat_map(|nr| nr.cpu_series.iter())
                .flat_map(|u| u.to_bits().to_le_bytes()),
        );
        println!("{pass}.cpu_series_fnv {util_hash:016x}");
        let render = report.trace.render();
        println!(
            "{pass}.trace lines {} fnv {:016x}",
            report.trace.len(),
            fnv1a(render.bytes())
        );
    }
    print_queues("sort", &out);
    print_census("sort", &out);

    // Chaos section: the same sort under a pinned fault plan (crash one
    // ASU mid-pass-1 plus a lossy host→ASU link). Everything the fault
    // layer does — bounces, retries, fencing, detection, repair — draws
    // from seeded state, so these figures must be run-to-run stable too.
    let cluster = ClusterConfig::era_2002(1, 2, 8.0);
    let data = generate_rec128(n, KeyDist::Uniform, 1);
    let plan = FaultPlan::new()
        .crash(asu_index(&cluster, 1), SimTime(out.pass1.makespan.0 / 3))
        .link_loss(0, asu_index(&cluster, 0), SimTime::ZERO, 0.05);
    let spec = FaultSpec::with_plan(plan);
    let chaos = run_dsm_sort_faulty(
        &cluster,
        &spec,
        data,
        &dsm,
        LoadMode::Managed(RoutingPolicy::SimpleRandomization),
    )
    .expect("pinned chaos sort runs");
    println!(
        "chaos.pass1.makespan_ns {}",
        chaos.pass1.makespan.as_nanos()
    );
    println!("chaos.total_ns {}", chaos.total.as_nanos());
    println!("chaos.pass1.dispatched {}", chaos.pass1.dispatched);
    let s = chaos.pass1.fault;
    println!(
        "chaos.fault retries {} nacks {} drops {} lost {} abandoned {} fenced {} detections {}",
        s.retries,
        s.nacks,
        s.drops,
        s.lost_queued_records,
        s.abandoned_records,
        s.fenced_instances,
        s.detections
    );
    println!("chaos.recovered_records {}", chaos.recovered_records);
    let chaos_hash = fnv1a(
        chaos
            .output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    let chaos_records: usize = chaos.output.iter().map(|p| p.len()).sum();
    println!("chaos.output.records {chaos_records} chaos.output.key_fnv {chaos_hash:016x}");
    print_queues("chaos", &chaos);
    print_census("chaos", &chaos);

    // Planner section: the same sort with planner-chosen placement and
    // the runtime balancer armed. The plan search is RNG-free and the
    // balancer samples at virtual instants, so placement, plan reports,
    // reweight count, and all makespans must be run-to-run stable.
    let cluster = ClusterConfig::era_2002(2, 4, 8.0)
        .with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
    let data = generate_rec128(n, KeyDist::Uniform, 1);
    let auto = run_dsm_sort(&cluster, data, &dsm, LoadMode::Auto).expect("pinned auto sort runs");
    println!("auto.pass1.makespan_ns {}", auto.pass1.makespan.as_nanos());
    println!("auto.pass2.makespan_ns {}", auto.pass2.makespan.as_nanos());
    println!("auto.total_ns {}", auto.total.as_nanos());
    println!(
        "auto.reweights {} {}",
        auto.pass1.reweights, auto.pass2.reweights
    );
    let plan = auto.plan.as_ref().expect("auto carries its plan");
    println!(
        "auto.plan k {} predicted_ns {} {}",
        plan.sorters_per_subset,
        plan.pass1_predicted.as_nanos(),
        plan.pass2_predicted.as_nanos()
    );
    println!(
        "auto.plan.report_fnv {:016x} {:016x}",
        fnv1a(plan.pass1_report_json.bytes()),
        fnv1a(plan.pass2_report_json.bytes())
    );
    let auto_hash = fnv1a(
        auto.output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    let auto_records: usize = auto.output.iter().map(|p| p.len()).sum();
    println!("auto.output.records {auto_records} auto.output.key_fnv {auto_hash:016x}");
    print_census("auto", &auto);

    // Parallel section: the pinned multi-host sort pushed through the
    // partitioned engine (threads=4 on two hosts → two partitions, real
    // OS threads, real barriers). Every virtual-time observable and the
    // merged trace render must be identical run to run regardless of
    // how the threads interleave.
    let cluster = ClusterConfig::era_2002(2, 4, 8.0)
        .with_trace(4096)
        .with_threads(4);
    let data = generate_rec128(n, KeyDist::Uniform, 1);
    let par =
        run_dsm_sort(&cluster, data, &dsm, LoadMode::Static).expect("pinned parallel sort runs");
    let stats = par.pass1.par.expect("multi-host threaded run parallelizes");
    println!(
        "par.partitions {} par.windows {} par.remote_messages {}",
        stats.partitions, stats.windows, stats.remote_messages
    );
    println!(
        "par.dispatched {} par.critical_dispatched {}",
        par.pass1.dispatched, stats.critical_dispatched
    );
    println!("par.pass1.makespan_ns {}", par.pass1.makespan.as_nanos());
    println!("par.pass2.makespan_ns {}", par.pass2.makespan.as_nanos());
    println!("par.total_ns {}", par.total.as_nanos());
    let par_hash = fnv1a(
        par.output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    let par_records: usize = par.output.iter().map(|p| p.len()).sum();
    println!("par.output.records {par_records} par.output.key_fnv {par_hash:016x}");
    for (pass, report) in [("pass1", &par.pass1), ("pass2", &par.pass2)] {
        println!(
            "par.{pass}.trace lines {} fnv {:016x}",
            report.trace.len(),
            fnv1a(report.trace.render().bytes())
        );
    }
    print_queues("par", &par);
    print_census("par", &par);

    // Faulted-parallel section: a pinned chaos plan (ASU crash +
    // recovery + lossy link) through the partitioned engine. Fault
    // injection runs as static timelines and per-partition controllers,
    // so every fault observable — bounces, retries, fencing, detection,
    // repair — must be identical run to run under real threads. The
    // window-width histogram is a virtual-time quantity and diffs too;
    // the barrier-wait histogram is wall-clock and is deliberately NOT
    // printed.
    let cluster = ClusterConfig::era_2002(2, 4, 8.0)
        .with_trace(4096)
        .with_threads(4);
    let data = generate_rec128(n, KeyDist::Uniform, 1);
    let t_crash = SimTime(par.pass1.makespan.0 / 3);
    let plan = FaultPlan::new()
        .crash(asu_index(&cluster, 1), t_crash)
        .recover(
            asu_index(&cluster, 1),
            t_crash + SimDuration::from_millis(40),
        )
        .link_loss(0, asu_index(&cluster, 0), SimTime::ZERO, 0.05);
    let spec = FaultSpec::with_plan(plan);
    let pf = run_dsm_sort_faulty(
        &cluster,
        &spec,
        data,
        &dsm,
        LoadMode::Managed(RoutingPolicy::SimpleRandomization),
    )
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
    println!(
        "parfault.partitions {} parfault.windows {} parfault.remote_messages {}",
        stats.partitions, stats.windows, stats.remote_messages
    );
    println!(
        "parfault.dispatched {} parfault.critical_dispatched {}",
        pf.pass1.dispatched, stats.critical_dispatched
    );
    println!(
        "parfault.window_width_fnv {:016x}",
        fnv1a(
            stats
                .window_width_hist
                .buckets
                .iter()
                .flat_map(|c| c.to_le_bytes())
        )
    );
    println!(
        "parfault.pass1.makespan_ns {}",
        pf.pass1.makespan.as_nanos()
    );
    println!("parfault.total_ns {}", pf.total.as_nanos());
    let s = pf.pass1.fault;
    println!(
        "parfault.fault retries {} nacks {} drops {} lost {} abandoned {} fenced {} detections {}",
        s.retries,
        s.nacks,
        s.drops,
        s.lost_queued_records,
        s.abandoned_records,
        s.fenced_instances,
        s.detections
    );
    println!("parfault.recovered_records {}", pf.recovered_records);
    let pf_hash = fnv1a(
        pf.output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    let pf_records: usize = pf.output.iter().map(|p| p.len()).sum();
    println!("parfault.output.records {pf_records} parfault.output.key_fnv {pf_hash:016x}");
    for (pass, report) in [("pass1", &pf.pass1), ("pass2", &pf.pass2)] {
        println!(
            "parfault.{pass}.trace lines {} fnv {:016x}",
            report.trace.len(),
            fnv1a(report.trace.render().bytes())
        );
    }
    print_queues("parfault", &pf);
    print_census("parfault", &pf);

    // Balanced-parallel section: the snapshot balancer through the
    // partitioned engine. Instances self-report backlog on the sampling
    // grid and the single balancer actor reweights from the previous
    // window's snapshot, so the reweight count and every downstream
    // observable must be run-to-run stable under real threads.
    let cluster = ClusterConfig::era_2002(2, 4, 8.0)
        .with_trace(4096)
        .with_threads(4)
        .with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
    let data = generate_rec128(n, KeyDist::Uniform, 1);
    let pb = run_dsm_sort(
        &cluster,
        data,
        &dsm,
        LoadMode::Managed(RoutingPolicy::SimpleRandomization),
    )
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
    println!(
        "parbal.partitions {} parbal.windows {} parbal.remote_messages {}",
        stats.partitions, stats.windows, stats.remote_messages
    );
    println!(
        "parbal.reweights {} {}",
        pb.pass1.reweights, pb.pass2.reweights
    );
    println!("parbal.pass1.makespan_ns {}", pb.pass1.makespan.as_nanos());
    println!("parbal.total_ns {}", pb.total.as_nanos());
    let pb_hash = fnv1a(
        pb.output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    let pb_records: usize = pb.output.iter().map(|p| p.len()).sum();
    println!("parbal.output.records {pb_records} parbal.output.key_fnv {pb_hash:016x}");
    for (pass, report) in [("pass1", &pb.pass1), ("pass2", &pb.pass2)] {
        println!(
            "parbal.{pass}.trace lines {} fnv {:016x}",
            report.trace.len(),
            fnv1a(report.trace.render().bytes())
        );
    }
    print_queues("parbal", &pb);
    print_census("parbal", &pb);

    // Coded section: the pinned sort with a coded distribute edge
    // (r = 2), sequentially and through the partitioned kernel. Coded
    // frames are cut by deterministic FCFS buffering in the downstream
    // fan-out, so makespans, dispatch counts, the output stream, and
    // the measured ASU shuffle bytes must be identical run to run and
    // across thread counts.
    for (tag, threads) in [("coded", 1usize), ("parcoded", 4)] {
        let cluster = ClusterConfig::era_2002(2, 4, 8.0).with_threads(threads);
        let dsm = DsmConfig::new(8, 256, 4, 64).with_coded(2);
        let data = generate_rec128(n, KeyDist::Uniform, 1);
        let c = run_dsm_sort(&cluster, data, &dsm, LoadMode::Static)
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
        println!("{tag}.pass1.makespan_ns {}", c.pass1.makespan.as_nanos());
        println!("{tag}.pass2.makespan_ns {}", c.pass2.makespan.as_nanos());
        println!("{tag}.total_ns {}", c.total.as_nanos());
        println!(
            "{tag}.dispatched {} {}",
            c.pass1.dispatched, c.pass2.dispatched
        );
        let asu_tx: u64 = c
            .pass1
            .nodes
            .iter()
            .filter(|nr| matches!(nr.id, NodeId::Asu(_)))
            .map(|nr| nr.nic_bytes_tx)
            .sum();
        println!("{tag}.pass1.asu_nic_bytes_tx {asu_tx}");
        let c_hash = fnv1a(
            c.output
                .iter()
                .flat_map(|p| p.records())
                .flat_map(|r| r.key().to_le_bytes()),
        );
        let c_records: usize = c.output.iter().map(|p| p.len()).sum();
        println!("{tag}.output.records {c_records} {tag}.output.key_fnv {c_hash:016x}");
        print_census(tag, &c);
    }

    // Repair section: a seeded Poisson fault schedule with the
    // background re-replication engine on, sequentially and through the
    // partitioned kernel. Engine decisions are pure functions of its
    // load state, same-instant completions and destination writes are
    // applied in canonical assignment-id order, and the coordinator
    // coalesces same-instant trajectory samples, so every repair
    // observable — counters, final replica histogram, the whole
    // trajectory, per-node source bytes — must be identical run to run
    // and across thread counts.
    for (tag, threads) in [("repair", 1usize), ("parrepair", 4)] {
        let r = repair_run(threads);
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
        println!("{tag}.makespan_ns {}", r.makespan.as_nanos());
        println!("{tag}.dispatched {}", r.dispatched);
        let s = r.repair;
        println!(
            "{tag}.repair enqueued {} completed {} reassigned {} wasted {} \
             blocks_lost {} bytes_repaired {}",
            s.enqueued,
            s.completed,
            s.reassigned,
            s.wasted,
            s.blocks_lost,
            s.bytes_repaired
        );
        println!("{tag}.replica_hist {:?}", r.replica_hist);
        let traj_fnv = fnv1a(r.repair_trajectory.iter().flat_map(|p| {
            p.at.0
                .to_le_bytes()
                .into_iter()
                .chain(p.hist.iter().flat_map(|c| c.to_le_bytes()))
        }));
        println!(
            "{tag}.trajectory points {} fnv {traj_fnv:016x}",
            r.repair_trajectory.len()
        );
        println!("{tag}.src_bytes {:?}", r.repair_src_bytes);
        println!("{tag}.detections {}", r.fault.detections);
        println!("{tag}.census {}", r.census);
    }

    // Scheduler section: a pinned multi-tenant run (seeded Poisson
    // arrivals, admission gate, naive vs residual-planned placement).
    // Gate decisions are pure functions of predicted footprints and
    // the calendar, so dispatch order, queue waits, every latency,
    // the event log, and the rendered JSON must be identical run to
    // run.
    let cluster = ClusterConfig::era_2002(4, 4, 2.0);
    let sdsm = DsmConfig::new(2, 256, 4, 64);
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
        let out =
            lmas_sched::run_scheduled(&cluster, &sdsm, &spec).expect("pinned scheduled run");
        println!(
            "{tag}.jobs {} completed {} rejected {}",
            out.jobs.len(),
            out.completed(),
            out.rejections.len()
        );
        println!("{tag}.makespan_ns {}", out.makespan.as_nanos());
        println!(
            "{tag}.events {} json_fnv {:016x}",
            out.events.len(),
            fnv1a(out.to_json().bytes())
        );
    }
}

/// The repair scenario: source on host 0 → relay on every ASU → sink on
/// the last host, a seeded Poisson crash/recovery schedule, and repair
/// at 256 MiB/s over 96 × 256 KiB blocks at replication target 3.
fn repair_run(threads: usize) -> EmulationReport<Rec8> {
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
    let mut inputs = BTreeMap::new();
    inputs.insert((src.0, 0usize), packetize(data, 50));
    run_job_with_faults(
        &cfg,
        &spec,
        Job {
            graph: g,
            placement,
            inputs,
        },
    )
    .expect("pinned repair run succeeds")
}

/// One `{tag}.queues_fnv` line: the FNV-1a of each pass's rendered
/// queue statistics, so the run-twice diff also covers the backlog
/// gauges (merged across partitions on a threaded run).
fn print_queues<R: Record>(tag: &str, out: &DsmOutcome<R>) {
    let fnv = |r: &EmulationReport<R>| fnv1a(format!("{:?}", r.queue_stats).bytes());
    println!(
        "{tag}.queues_fnv {:016x} {:016x}",
        fnv(&out.pass1),
        fnv(&out.pass2)
    );
}

/// One `{tag}.{pass}.census` line per pass: the dispatch census, whose
/// rows sum to the pass's `dispatched`.
fn print_census<R: Record>(tag: &str, out: &DsmOutcome<R>) {
    let names = std::iter::once("pass1")
        .chain(out.repair.as_ref().map(|_| "repair"))
        .chain(out.intermediate.iter().map(|_| "merge"))
        .chain(std::iter::once("pass2"));
    for (pass, r) in names.zip(out.passes()) {
        println!("{tag}.{pass}.census {}", r.census);
    }
}
