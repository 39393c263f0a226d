//! Integration tests for the dataflow runtime on the emulated cluster.

use lmas_core::functor::lib::{BlockSortFunctor, DistributeFunctor, MapFunctor, MergeFunctor};
use lmas_core::{
    generate_rec8, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId, Packet, Placement,
    Rec8, RoutingPolicy, StageId, Work,
};
use lmas_emulator::{run_job, BalanceSpec, ClusterConfig, Job, JobError};
use lmas_sim::SimDuration;
use std::collections::BTreeMap;

fn identity_factory() -> impl Fn(usize) -> Box<dyn Functor<Rec8>> + Send + 'static {
    |_| Box::new(MapFunctor::new("id", Work::ZERO, |r: Rec8| r))
}

fn keys(records: &[Rec8]) -> Vec<u32> {
    records.iter().map(|r| r.key).collect()
}

fn sorted_tags(records: &[Rec8]) -> Vec<u32> {
    let mut t: Vec<u32> = records.iter().map(|r| r.tag).collect();
    t.sort_unstable();
    t
}

/// Source on an ASU streaming to a sink on the host: everything arrives.
#[test]
fn identity_pipeline_delivers_all_records() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let data = generate_rec8(1_000, KeyDist::Uniform, 1);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let dst = g.add_stage(1, identity_factory());
    g.connect(src, dst, RoutingPolicy::Static, EdgeKind::Stream)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(dst, 0, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data.clone(), 100));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();

    let out = report.sink_records();
    assert_eq!(out.len(), 1_000);
    assert_eq!(sorted_tags(&out), (0..1_000).collect::<Vec<u32>>());
    assert!(report.makespan.as_nanos() > 0);
    assert!(report.mem_violations.is_empty());
    // Both stages saw all records.
    assert_eq!(report.stage_records_in, vec![1_000, 1_000]);
    // Data crossed the ASU→host link.
    let asu = report
        .nodes
        .iter()
        .find(|n| n.id == NodeId::Asu(0))
        .unwrap();
    assert!(asu.nic_busy.as_nanos() > 0);
    // Source read from disk; sink wrote to disk.
    let (reads, _, bytes_read, _) = asu.disk;
    assert_eq!(reads, 10);
    assert_eq!(bytes_read, 8 * 1_000);
    let host = report
        .nodes
        .iter()
        .find(|n| n.id == NodeId::Host(0))
        .unwrap();
    let (_, writes, _, bytes_written) = host.disk;
    assert!(writes > 0);
    assert_eq!(bytes_written, 8 * 1_000);
}

/// Stream edges preserve order end to end.
#[test]
fn stream_edge_preserves_sequence() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let data: Vec<Rec8> = (0..500).map(|i| Rec8 { key: i, tag: i }).collect();
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let dst = g.add_stage(1, identity_factory());
    g.connect(src, dst, RoutingPolicy::Static, EdgeKind::Stream)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(dst, 0, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 64));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();
    assert_eq!(keys(&report.sink_records()), (0..500).collect::<Vec<u32>>());
}

/// Distribute ports map statically onto downstream instances.
#[test]
fn static_routing_pins_ports_to_instances() {
    let cfg = ClusterConfig::era_2002(2, 1, 8.0);
    let data: Vec<Rec8> = (0..100).map(|i| Rec8 { key: i, tag: i }).collect();
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    // 2 buckets: keys < 50 on port 0, >= 50 on port 1.
    let src = g.add_source_stage(1, |_| {
        Box::new(DistributeFunctor::<Rec8>::new(vec![50])) as Box<dyn Functor<Rec8>>
    });
    let dst = g.add_stage(2, identity_factory());
    g.connect(src, dst, RoutingPolicy::Static, EdgeKind::Set)
        .unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.spread_over_hosts(dst, 2, 2);
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 10));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();

    let low = report.sink_outputs.get(&(1, 0)).unwrap();
    let high = report.sink_outputs.get(&(1, 1)).unwrap();
    let low_keys: Vec<u32> = low
        .iter()
        .flat_map(|(_, p)| p.records().iter().map(|r| r.key))
        .collect();
    let high_keys: Vec<u32> = high
        .iter()
        .flat_map(|(_, p)| p.records().iter().map(|r| r.key))
        .collect();
    assert!(low_keys.iter().all(|&k| k < 50), "{low_keys:?}");
    assert!(high_keys.iter().all(|&k| k >= 50), "{high_keys:?}");
    assert_eq!(low_keys.len() + high_keys.len(), 100);
}

/// A distribute → block-sort → merge pipeline yields a sorted permutation.
#[test]
fn three_stage_sort_pipeline_sorts() {
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let n = 2_000u64;
    let data = generate_rec8(n, KeyDist::Uniform, 9);
    let splitters = lmas_core::kernels::select_splitters(data.clone(), 4);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let sp = splitters.clone();
    let src = g.add_source_stage(2, move |_| {
        Box::new(DistributeFunctor::<Rec8>::new(sp.clone())) as Box<dyn Functor<Rec8>>
    });
    // 4 block-sorters, one per bucket (static port routing).
    let bs = g.add_stage(4, |_| {
        Box::new(BlockSortFunctor::<Rec8>::new(128)) as Box<dyn Functor<Rec8>>
    });
    let mg = g.add_stage(4, |_| {
        Box::new(MergeFunctor::<Rec8>::new(64)) as Box<dyn Functor<Rec8>>
    });
    g.connect(src, bs, RoutingPolicy::Static, EdgeKind::Set).unwrap();
    g.connect(bs, mg, RoutingPolicy::Static, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.spread_over_asus(src, 2, 2);
    placement.spread_over_hosts(bs, 4, 1);
    placement.spread_over_hosts(mg, 4, 1);
    let mut inputs = BTreeMap::new();
    let half = (n / 2) as usize;
    inputs.insert((0usize, 0usize), packetize(data[..half].to_vec(), 100));
    inputs.insert((0usize, 1usize), packetize(data[half..].to_vec(), 100));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();

    // Each merge sink instance i holds bucket i fully sorted; bucket i
    // keys all precede bucket i+1 keys.
    let mut all = Vec::new();
    for i in 0..4 {
        if let Some(outs) = report.sink_outputs.get(&(2, i)) {
            let recs: Vec<Rec8> = outs
                .iter()
                .flat_map(|(_, p)| p.records().iter().cloned())
                .collect();
            assert!(
                lmas_core::kernels::is_sorted_by_key(&recs),
                "bucket {i} not sorted"
            );
            all.extend(recs);
        }
    }
    assert_eq!(all.len(), n as usize);
    assert!(lmas_core::kernels::is_sorted_by_key(&all), "global order");
    assert_eq!(sorted_tags(&all), (0..n as u32).collect::<Vec<u32>>());
}

/// Two instances sharing one CPU take about twice as long as two on
/// separate CPUs.
#[test]
fn colocated_instances_contend_for_cpu() {
    let run = |hosts: usize| {
        let cfg = ClusterConfig::era_2002(hosts, 1, 8.0);
        let data = generate_rec8(20_000, KeyDist::Uniform, 4);
        let mut g: FlowGraph<Rec8> = FlowGraph::new();
        let src = g.add_source_stage(1, identity_factory());
        let work = g.add_stage(2, |_| {
            Box::new(MapFunctor::new("burn", Work::compares(64), |r: Rec8| r))
                as Box<dyn Functor<Rec8>>
        });
        g.connect(src, work, RoutingPolicy::RoundRobin, EdgeKind::Set)
            .unwrap();
        let mut placement = Placement::new();
        placement.assign(src, 0, NodeId::Asu(0));
        placement.spread_over_hosts(work, 2, hosts);
        let mut inputs = BTreeMap::new();
        inputs.insert((0usize, 0usize), packetize(data, 500));
        run_job(&cfg, Job { graph: g, placement, inputs })
            .unwrap()
            .makespan
            .as_secs_f64()
    };
    let shared = run(1);
    let separate = run(2);
    let ratio = shared / separate;
    assert!(
        (1.5..2.5).contains(&ratio),
        "contention ratio {ratio} (shared {shared}s, separate {separate}s)"
    );
}

/// Same seed ⇒ identical makespan and stage work; different seed with SR
/// routing ⇒ (almost surely) different packet placement.
#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut cfg = ClusterConfig::era_2002(2, 2, 8.0);
        cfg.seed = seed;
        let data = generate_rec8(5_000, KeyDist::Uniform, 7);
        let mut g: FlowGraph<Rec8> = FlowGraph::new();
        let src = g.add_source_stage(2, identity_factory());
        let work = g.add_stage(2, identity_factory());
        g.connect(src, work, RoutingPolicy::SimpleRandomization, EdgeKind::Set)
            .unwrap();
        let mut placement = Placement::new();
        placement.spread_over_asus(src, 2, 2);
        placement.spread_over_hosts(work, 2, 2);
        let mut inputs = BTreeMap::new();
        inputs.insert((0usize, 0usize), packetize(data[..2500].to_vec(), 50));
        inputs.insert((0usize, 1usize), packetize(data[2500..].to_vec(), 50));
        let r = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();
        let recs0 = r
            .sink_outputs
            .get(&(1, 0))
            .map(|v| v.iter().map(|(_, p)| p.len()).sum::<usize>())
            .unwrap_or(0);
        (r.makespan, recs0)
    };
    assert_eq!(run(42), run(42));
    let (_, a) = run(42);
    let (_, b) = run(43);
    assert_ne!(a, b, "SR routing should differ across seeds");
}

/// The runtime flags functors whose state exceeds node memory.
#[test]
fn memory_violations_are_reported() {
    let mut cfg = ClusterConfig::era_2002(1, 1, 8.0);
    cfg.host_mem_bytes = 64; // absurdly small host
    let data = generate_rec8(1_000, KeyDist::Uniform, 3);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    // Block sort buffers 1000 records = 8000 bytes >> 64.
    let bs = g.add_stage(1, |_| {
        Box::new(BlockSortFunctor::<Rec8>::new(10_000)) as Box<dyn Functor<Rec8>>
    });
    g.connect(src, bs, RoutingPolicy::Static, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(bs, 0, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 100));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();
    assert!(!report.mem_violations.is_empty());
}

/// Placement of a host-only functor on an ASU is rejected up front.
#[test]
fn asu_ineligible_placement_rejected() {
    struct HostOnly;
    impl Functor<Rec8> for HostOnly {
        fn name(&self) -> String {
            "host-only".into()
        }
        fn kind(&self) -> lmas_core::FunctorKind {
            lmas_core::FunctorKind::HostOnly
        }
        fn process(&mut self, p: Packet<Rec8>, out: &mut lmas_core::Emit<Rec8>) {
            out.push0(p);
        }
        fn flush(&mut self, _out: &mut lmas_core::Emit<Rec8>) {}
        fn cost(&self, _p: &Packet<Rec8>) -> Work {
            Work::ZERO
        }
    }
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, |_| Box::new(HostOnly) as Box<dyn Functor<Rec8>>);
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    let err = run_job(
        &cfg,
        Job { graph: g, placement, inputs: BTreeMap::new() },
    )
    .unwrap_err();
    assert!(matches!(err, JobError::Placement(_)), "{err}");
}

/// Input handed to a non-source stage is rejected.
#[test]
fn input_for_non_source_rejected() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let dst = g.add_stage(1, identity_factory());
    g.connect(src, dst, RoutingPolicy::Static, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(dst, 0, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((1usize, 0usize), vec![Packet::new(vec![Rec8 { key: 1, tag: 0 }])]);
    let err = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap_err();
    assert!(matches!(err, JobError::InputForNonSource { stage: 1, .. }));
}

/// Input keyed to an instance the graph does not have is rejected
/// before anything runs, under both drivers: a stage past the end used
/// to panic on the index, and an instance at or past the replication
/// used to run to a "successful" report without its records.
#[test]
fn input_for_unknown_instance_rejected() {
    for threads in [1, 2] {
        let cfg = ClusterConfig::era_2002(2, 1, 8.0).with_threads(threads);
        for key in [(7usize, 0usize), (0, 1)] {
            let mut g: FlowGraph<Rec8> = FlowGraph::new();
            let src = g.add_source_stage(1, identity_factory());
            let dst = g.add_stage(1, identity_factory());
            g.connect(src, dst, RoutingPolicy::Static, EdgeKind::Set).unwrap();
            let mut placement = Placement::new();
            placement.assign(src, 0, NodeId::Asu(0));
            placement.assign(dst, 0, NodeId::Host(0));
            let mut inputs = BTreeMap::new();
            inputs.insert((0usize, 0usize), vec![Packet::new(vec![Rec8 { key: 1, tag: 0 }])]);
            inputs.insert(key, vec![Packet::new(vec![Rec8 { key: 2, tag: 1 }])]);
            let err = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap_err();
            let (stage, instance) = key;
            assert!(
                matches!(err, JobError::InputForUnknownInstance { stage: s, instance: i }
                    if s == stage && i == instance),
                "threads {threads}, key {key:?}: {err}"
            );
        }
    }
}

/// A non-source stage with no incoming edge is rejected.
#[test]
fn disconnected_stage_rejected() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let _orphan = g.add_stage(1, identity_factory());
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(StageId(1), 0, NodeId::Host(0));
    let err = run_job(
        &cfg,
        Job { graph: g, placement, inputs: BTreeMap::new() },
    )
    .unwrap_err();
    assert!(matches!(err, JobError::DisconnectedStage(_)));
}

/// Load-aware routing sends more records to the faster of two
/// heterogeneous destinations.
#[test]
fn load_aware_routing_respects_capacity() {
    // Destination 0 on an ASU (slow), destination 1 on a host (fast).
    let cfg = ClusterConfig::era_2002(1, 2, 8.0);
    let data = generate_rec8(20_000, KeyDist::Uniform, 11);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let work = g.add_stage(2, |_| {
        Box::new(MapFunctor::new("burn", Work::compares(32), |r: Rec8| r))
            as Box<dyn Functor<Rec8>>
    });
    g.connect(src, work, RoutingPolicy::LoadAware, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(work, 0, NodeId::Asu(1));
    placement.assign(work, 1, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 200));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();
    let count = |i: usize| {
        report
            .sink_outputs
            .get(&(1, i))
            .map(|v| v.iter().map(|(_, p)| p.len()).sum::<usize>())
            .unwrap_or(0)
    };
    let slow = count(0);
    let fast = count(1);
    assert_eq!(slow + fast, 20_000);
    assert!(
        fast > slow * 3,
        "fast host should absorb most load: fast={fast} slow={slow}"
    );
}

/// Placement validation error paths surface as typed `JobError`s: an
/// instance with no node is `Unassigned`; a functor whose declared
/// state bound exceeds ASU memory cannot land on an ASU.
#[test]
fn placement_error_paths_are_typed() {
    use lmas_core::PlacementError;
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    // Unassigned: second instance of the sink never placed.
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let dst = g.add_stage(2, identity_factory());
    g.connect(src, dst, RoutingPolicy::RoundRobin, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(dst, 0, NodeId::Host(0));
    let err = run_job(&cfg, Job { graph: g, placement, inputs: BTreeMap::new() }).unwrap_err();
    match err {
        JobError::Placement(PlacementError::Unassigned { stage, instance }) => {
            assert_eq!((stage, instance), (StageId(1), 1));
        }
        other => panic!("expected Unassigned, got {other}"),
    }

    // Memory bound: an ASU-eligible functor whose state bound exceeds
    // ASU memory is not placeable there.
    struct Fat;
    impl Functor<Rec8> for Fat {
        fn name(&self) -> String {
            "fat".into()
        }
        fn kind(&self) -> lmas_core::FunctorKind {
            lmas_core::FunctorKind::AsuEligible { max_state_bytes: 1 << 40 }
        }
        fn process(&mut self, p: Packet<Rec8>, out: &mut lmas_core::Emit<Rec8>) {
            out.push0(p);
        }
        fn flush(&mut self, _out: &mut lmas_core::Emit<Rec8>) {}
        fn cost(&self, _p: &Packet<Rec8>) -> Work {
            Work::ZERO
        }
    }
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, |_| Box::new(Fat) as Box<dyn Functor<Rec8>>);
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    let err = run_job(&cfg, Job { graph: g, placement, inputs: BTreeMap::new() }).unwrap_err();
    match err {
        JobError::Placement(PlacementError::NotAsuEligible { node, .. }) => {
            assert_eq!(node, NodeId::Asu(0));
        }
        other => panic!("expected NotAsuEligible, got {other}"),
    }
}

/// Time-weighted queue statistics: a fast source feeding a slow worker
/// builds queue on the worker; the report surfaces nonzero peak and
/// mean depth for the worker stage, zero for the source, and all queues
/// drained at the end of a clean run.
#[test]
fn queue_stats_report_time_weighted_depths() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let data = generate_rec8(10_000, KeyDist::Uniform, 5);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let work = g.add_stage(1, |_| {
        Box::new(MapFunctor::new("burn", Work::compares(128), |r: Rec8| r))
            as Box<dyn Functor<Rec8>>
    });
    g.connect(src, work, RoutingPolicy::Static, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(work, 0, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 250));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();

    assert_eq!(report.queue_stats.len(), 2);
    // Sources pull from disk; they never queue.
    assert_eq!(report.queue_stats[0].max_peak(), 0);
    let worker = &report.queue_stats[1].instances[0];
    assert!(worker.peak_depth > 0, "worker never queued");
    assert!(worker.mean_depth > 0.0);
    assert!(
        worker.mean_depth <= worker.peak_depth as f64,
        "mean {} cannot exceed peak {}",
        worker.mean_depth,
        worker.peak_depth
    );
    assert_eq!(worker.final_depth, 0, "clean runs drain");
    assert_eq!(report.reweights, 0, "balancer is off by default");
    // The rendered summary carries the queue section.
    let text = lmas_emulator::render_summary(&report);
    assert!(text.contains("-- queues"), "{text}");
}

fn skew_job(cfg: &ClusterConfig) -> Result<lmas_emulator::EmulationReport<Rec8>, JobError> {
    // Source on ASU 0; two replicas of a hot stage, one on the 8×
    // slower ASU 1 and one on the host. SR routing splits ~50/50, so
    // the ASU replica's queue grows without feedback.
    let data = generate_rec8(30_000, KeyDist::Uniform, 13);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, identity_factory());
    let work = g.add_stage(2, |_| {
        Box::new(MapFunctor::new("burn", Work::compares(64), |r: Rec8| r))
            as Box<dyn Functor<Rec8>>
    });
    g.connect(src, work, RoutingPolicy::SimpleRandomization, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(work, 0, NodeId::Asu(1));
    placement.assign(work, 1, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 200));
    run_job(cfg, Job { graph: g, placement, inputs })
}

/// The runtime balancer: under a skewed replica set it re-weights
/// routing toward the faster replica, shifting records and shortening
/// the makespan versus the unbalanced run.
#[test]
fn balancer_shifts_load_and_shortens_makespan() {
    let base = ClusterConfig::era_2002(1, 2, 8.0);
    let balanced_cfg = base.with_balancer(
        BalanceSpec::every(SimDuration::from_micros(500)).with_deadband(256),
    );
    let plain = skew_job(&base).unwrap();
    let balanced = skew_job(&balanced_cfg).unwrap();

    assert!(balanced.reweights > 0, "skew must trigger reweighting");
    let count = |r: &lmas_emulator::EmulationReport<Rec8>, i: usize| {
        r.sink_outputs
            .get(&(1, i))
            .map(|v| v.iter().map(|(_, p)| p.len()).sum::<usize>())
            .unwrap_or(0)
    };
    // All records still arrive, but the host absorbs a larger share
    // than under unweighted SR.
    assert_eq!(count(&balanced, 0) + count(&balanced, 1), 30_000);
    assert!(
        count(&balanced, 1) > count(&plain, 1),
        "host share should grow: balanced {} vs plain {}",
        count(&balanced, 1),
        count(&plain, 1)
    );
    assert!(
        balanced.makespan < plain.makespan,
        "feedback should shorten the run: {} vs {}",
        balanced.makespan,
        plain.makespan
    );
}

/// A balancer that never leaves its deadband changes nothing: virtual
/// time and outputs are byte-identical to a balancer-free run.
#[test]
fn idle_balancer_is_byte_identical() {
    let base = ClusterConfig::era_2002(1, 2, 8.0);
    let idle = base.with_balancer(
        BalanceSpec::every(SimDuration::from_micros(500))
            .with_deadband(u64::MAX)
            .with_cpu_deadband(SimDuration(u64::MAX)),
    );
    let plain = skew_job(&base).unwrap();
    let watched = skew_job(&idle).unwrap();
    assert_eq!(watched.reweights, 0);
    assert_eq!(plain.makespan, watched.makespan);
    let flat = |r: &lmas_emulator::EmulationReport<Rec8>| {
        r.sink_outputs
            .iter()
            .map(|(&k, v)| (k, v.iter().map(|(_, p)| p.len()).sum::<usize>()))
            .collect::<Vec<_>>()
    };
    assert_eq!(flat(&plain), flat(&watched), "identical packet routing");
    // Deterministic reruns, balancer on.
    let again = skew_job(&idle).unwrap();
    assert_eq!(again.makespan, watched.makespan);
}

/// The work audit: stage work matches the functor cost declarations.
#[test]
fn stage_work_matches_declared_costs() {
    let cfg = ClusterConfig::era_2002(1, 1, 8.0);
    let n = 1_024u64;
    let data = generate_rec8(n, KeyDist::Uniform, 2);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(1, |_| {
        // α = 16 distribute: 4 compares per record.
        Box::new(DistributeFunctor::<Rec8>::new(
            lmas_core::kernels::select_splitters(
                generate_rec8(256, KeyDist::Uniform, 2),
                16,
            ),
        )) as Box<dyn Functor<Rec8>>
    });
    let sink = g.add_stage(1, identity_factory());
    g.connect(src, sink, RoutingPolicy::Static, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(sink, 0, NodeId::Host(0));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data, 128));
    let report = run_job(&cfg, Job { graph: g, placement, inputs }).unwrap();
    let (name, w) = &report.stage_work[0];
    assert!(name.contains("distribute"));
    assert_eq!(w.compares, n * 4, "n·log2(16) compares");
}
