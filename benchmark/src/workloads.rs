//! The six workloads. Each is a closed loop over one complete emulated
//! job: rep k+1 starts when rep k returns. Timed reps call only the
//! program's top-level entries; the traced rep recomposes the same job
//! from the layers' public functions, one span per call.

use crate::layers::{self, report_counts};
use crate::metrics::Metrics;
use crate::timed::{wrap_job, FunctorClock};
use crate::trace::Tracer;
use lmas_core::functor::lib::RelayFunctor;
use lmas_core::{
    generate_rec128, generate_rec8, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId,
    Packet, Placement, Rec128, Rec8, Record, RoutingPolicy,
};
use lmas_emulator::{
    asu_index, run_job, run_job_with_faults, BalanceSpec, ClusterConfig, EmulationReport,
    FaultSpec, Job, RepairSpec, StorageSpec,
};
use lmas_gis::{
    build_restructure_job, fractal_terrain, matches_oracle, restructure, run_terraflow, CellRec,
    Grid, TerraFlowOutcome, WatershedFunctor, WatershedLabeler,
};
use lmas_plan::ResidualCapacity;
use lmas_sched::{run_scheduled, ArrivalSpec, Policy, SchedOutcome, SchedSpec};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use lmas_sort::{
    build_pass1_job, canonical_equal, check_tag_permutation, choose_splitters, plan_pass1_coded,
    plan_pass1_residual, reconstruct_sorted, run_dsm_sort, run_dsm_sort_faulty, run_pass1,
    run_pass1_with, run_pass2, split_across_asus, DsmConfig, LoadMode,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 6] = [
    "sort_default",
    "sort_bulk",
    "fleet_chaos",
    "fleet_chaos_par",
    "sched_mix",
    "terraflow",
];

/// One timed call of a workload's entry point.
pub struct Rep<O> {
    pub out: O,
    pub wall_ns: u64,
    /// Cloning the input for the call; outside the timed span.
    pub clone_ns: u64,
}

/// What one traced rep yields besides its spans.
pub struct TracedRep {
    pub digest: u64,
    /// Calls into the wrapped pass-1 functors.
    pub functor_calls: u64,
    /// Events the wrapped pass-1 job dispatched.
    pub pass1_events: u64,
}

pub trait Workload {
    type Out;

    /// Input records (cells, or records summed over jobs) one rep consumes.
    fn records(&self) -> u64;
    /// Emulator worker threads the timed entry runs on.
    fn threads(&self) -> usize {
        1
    }
    /// One call of the top-level entry on a fresh copy of the input.
    fn rep(&self) -> Rep<Self::Out>;
    /// Full output verification (warm-up rep only).
    fn verify(&self, out: &Self::Out) -> Result<(), String>;
    /// Cheap per-rep structural check beyond the digest.
    fn engaged(&self, _out: &Self::Out) -> bool {
        true
    }
    /// FNV-1a over virtual makespans, records processed and the output —
    /// everything a simulator-speed change must leave alone, and no event
    /// counts, which such a change may legitimately move.
    fn digest(&self, out: &Self::Out) -> u64;
    /// Virtual makespan of the job in milliseconds, summed over its passes.
    fn sim_makespan_ms(&self, out: &Self::Out) -> f64;
    /// Count metrics read off the returned reports.
    fn counts(&self, out: &Self::Out, m: &mut Metrics);
    /// The job recomposed from public layer functions under spans.
    fn traced_rep(&self, tr: &mut Tracer) -> TracedRep;
    /// Span-derived figures and floors; `wall_ms_p50` is this run's own
    /// untraced median.
    fn layers(
        &self,
        warm: &Self::Out,
        tr: &Tracer,
        reps: &[TracedRep],
        wall_ms_p50: f64,
        m: &mut Metrics,
    );
}

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn get(&self) -> u64 {
        self.0
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Functor and emulator-self figures of the wrapped pass-1 (or step-1)
/// job, common to every workload that has one.
fn pass1_layer_metrics(tr: &Tracer, reps: &[TracedRep], m: &mut Metrics) {
    let run_ms = tr.median_ms("emulator.run_job.pass1");
    let functor_ms = tr.median_ms("core.functor.pass1");
    let self_ms = tr.median_self_ms("emulator.run_job.pass1");
    let mid = |f: fn(&TracedRep) -> u64| {
        crate::stats::median(&reps.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    m.set("emulator.run_job.pass1_ms", run_ms);
    m.set("emulator.run_job.pass1_self_ms", self_ms);
    m.set(
        "emulator.self_ns_per_event",
        self_ms * 1e6 / mid(|r| r.pass1_events).max(1.0),
    );
    m.set("emulator.build_ms", tr.median_ms("emulator.build"));
    m.set("core.functor.pass1_self_ms", functor_ms);
    m.set("core.functor.pass1_calls", mid(|r| r.functor_calls));
    m.set(
        "core.functor.share_pct",
        if run_ms > 0.0 {
            100.0 * functor_ms / run_ms
        } else {
            0.0
        },
    );
}

// ---------------------------------------------------------------- sorts

/// Fault plan, and what a faulted sort is checked against.
struct Chaos {
    spec: FaultSpec,
    /// Output of the fault-free run of the same job.
    reference: Vec<Packet<Rec128>>,
}

/// `sort_default`, `sort_bulk`, `fleet_chaos` and `fleet_chaos_par`: one
/// two-pass DSM-Sort of `Rec128` records, optionally under faults.
pub struct SortWl {
    cluster: ClusterConfig,
    dsm: DsmConfig,
    mode: LoadMode,
    data: Vec<Rec128>,
    chaos: Option<Chaos>,
    /// Digest of the same job on one emulator thread (`fleet_chaos_par`).
    seq_digest: Option<u64>,
}

/// Reports in pass order (pass 1, repair if any, pass 2) and the output.
pub struct SortOut {
    passes: Vec<EmulationReport<Rec128>>,
    output: Vec<Packet<Rec128>>,
    recovered: u64,
}

impl SortWl {
    pub fn sort_default(seed: u64) -> SortWl {
        SortWl {
            cluster: ClusterConfig::era_2002(1, 4, 8.0),
            dsm: DsmConfig::new(16, 256, 4, 64),
            mode: LoadMode::Static,
            data: generate_rec128(30_000, KeyDist::Uniform, seed),
            chaos: None,
            seq_digest: None,
        }
    }

    pub fn sort_bulk(seed: u64) -> SortWl {
        let mut storage = StorageSpec::striped(2).with_pool(128).with_sched_window(8);
        storage.blocks_per_stripe = 1;
        SortWl {
            cluster: ClusterConfig::era_2002(2, 16, 8.0).with_storage(storage),
            dsm: DsmConfig::new(16, 4096, 8, 64),
            mode: LoadMode::managed_sr(),
            data: generate_rec128(1 << 19, KeyDist::HalfUniformHalfExp { rate: 8.0 }, seed),
            chaos: None,
            seq_digest: None,
        }
    }

    /// `par_scaling`'s 256-node faulted + balanced cell, plus background
    /// repair. The crash instant hangs off the fault-free pass-1 makespan,
    /// so set-up runs the job once without faults; that run's output is
    /// also what the faulted output must equal.
    pub fn fleet_chaos(seed: u64, threads: usize) -> SortWl {
        SortWl::chaos(
            seed,
            threads,
            ClusterConfig::era_2002(64, 192, 8.0),
            1 << 19,
        )
    }

    fn chaos(seed: u64, threads: usize, base: ClusterConfig, records: u64) -> SortWl {
        let dsm = DsmConfig::new(4, 256, 8, 64);
        let mode = LoadMode::Managed(RoutingPolicy::RoundRobin);
        let data = generate_rec128(records, KeyDist::Uniform, seed);
        let clean = run_dsm_sort(&base, data.clone(), &dsm, mode).expect("fault-free probe runs");
        let crash = SimTime(clean.pass1.makespan.0 / 3);
        let plan = FaultPlan::new()
            .crash(asu_index(&base, 1), crash)
            .recover(asu_index(&base, 1), crash + SimDuration::from_millis(40))
            .link_loss(0, asu_index(&base, 0), SimTime::ZERO, 0.05);
        let repair = RepairSpec::new(4096, 3, 1 << 20, 16.0 * (1 << 20) as f64);
        let balanced = base.with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
        let mut wl = SortWl {
            cluster: balanced,
            dsm,
            mode,
            data,
            chaos: Some(Chaos {
                spec: FaultSpec::with_plan(plan).with_repair(repair),
                reference: clean.output,
            }),
            seq_digest: None,
        };
        if threads > 1 {
            // The partitioned run must reproduce the sequential one.
            let seq = wl.rep().out;
            wl.seq_digest = Some(wl.digest(&seq));
            wl.cluster = wl.cluster.with_threads(threads);
        }
        wl
    }

    fn fault_spec(&self) -> FaultSpec {
        self.chaos
            .as_ref()
            .map_or_else(FaultSpec::none, |c| c.spec.clone())
    }

    /// The timed entry on a given cluster (the partitioned workload also
    /// times the sequential engine, for `sim.par.wall_speedup`).
    fn entry(&self, cluster: &ClusterConfig, data: Vec<Rec128>) -> SortOut {
        match &self.chaos {
            None => {
                let o = run_dsm_sort(cluster, data, &self.dsm, self.mode).expect("sort runs");
                SortOut {
                    passes: vec![o.pass1, o.pass2],
                    output: o.output,
                    recovered: 0,
                }
            }
            Some(c) => {
                let o = run_dsm_sort_faulty(cluster, &c.spec, data, &self.dsm, self.mode)
                    .expect("faulted sort runs");
                SortOut {
                    passes: [Some(o.pass1), o.repair, Some(o.pass2)]
                        .into_iter()
                        .flatten()
                        .collect(),
                    output: o.output,
                    recovered: o.recovered_records,
                }
            }
        }
    }

    /// `run_dsm_sort_faulty`'s repair step between the passes, from the
    /// same public pieces: diff the tags of the reachable runs against
    /// the input and re-dispatch what is missing through a fault-free
    /// pass 1 on the surviving nodes. The traced digest must equal the
    /// untraced one, which holds this copy to the original.
    fn repair_lost(
        &self,
        tr: &mut Tracer,
        mut by_tag: BTreeMap<u64, Rec128>,
        p1: &EmulationReport<Rec128>,
        runs: &mut [Vec<Packet<Rec128>>],
        splitters: &[u32],
    ) -> (Option<EmulationReport<Rec128>>, u64) {
        let down = |want_asu: bool| -> Vec<usize> {
            p1.down_nodes
                .iter()
                .filter_map(|id| match *id {
                    NodeId::Asu(d) if want_asu => Some(d),
                    NodeId::Host(h) if !want_asu => Some(h),
                    _ => None,
                })
                .collect()
        };
        let lost_asus = down(true);
        tr.span("sort.fault.diff", |_| {
            for &d in &lost_asus {
                runs[d].clear();
            }
            for r in runs.iter().flatten().flat_map(|run| run.records()) {
                by_tag.remove(&r.tag());
            }
        });
        let recovered = by_tag.len() as u64;
        if by_tag.is_empty() {
            return (None, 0);
        }
        let live_asus: Vec<usize> = (0..self.cluster.asus)
            .filter(|d| !lost_asus.contains(d))
            .collect();
        let mut survivors = self.cluster;
        survivors.hosts -= down(false).len();
        survivors.asus = live_asus.len();
        let lost: Vec<Rec128> = by_tag.into_values().collect();
        let per_asu = split_across_asus(&lost, live_asus.len());
        let rp = tr.span("sort.fault.repair_pass", |_| {
            run_pass1(
                &survivors,
                per_asu,
                splitters.to_vec(),
                &self.dsm,
                self.mode,
            )
            .expect("repair pass runs")
        });
        for (i, extra) in rp.runs_per_asu.into_iter().enumerate() {
            runs[live_asus[i]].extend(extra);
        }
        (Some(rp.report), recovered)
    }
}

impl Workload for SortWl {
    type Out = SortOut;

    fn records(&self) -> u64 {
        self.data.len() as u64
    }

    fn threads(&self) -> usize {
        self.cluster.threads
    }

    fn rep(&self) -> Rep<SortOut> {
        let t = Instant::now();
        let data = self.data.clone();
        let clone_ns = elapsed_ns(t);
        let t = Instant::now();
        let out = self.entry(&self.cluster, data);
        Rep {
            out,
            wall_ns: elapsed_ns(t),
            clone_ns,
        }
    }

    fn verify(&self, out: &SortOut) -> Result<(), String> {
        let sorted = reconstruct_sorted(&out.output).map_err(|e| e.to_string())?;
        check_tag_permutation(sorted.iter().map(Rec128::tag), self.records())
            .map_err(|e| e.to_string())?;
        if let Some(c) = &self.chaos {
            canonical_equal(&out.output, &c.reference).map_err(|e| e.to_string())?;
        }
        if self.seq_digest.is_some_and(|d| d != self.digest(out)) {
            return Err("partitioned run differs from the sequential run".into());
        }
        if !self.engaged(out) {
            return Err("partitioned engine did not run on two partitions".into());
        }
        Ok(())
    }

    /// A silent sequential fallback must never be timed as "parallel".
    fn engaged(&self, out: &SortOut) -> bool {
        self.cluster.threads == 1
            || out.passes.iter().all(|r| {
                r.par_fallback.is_none()
                    && r.par
                        .as_ref()
                        .is_some_and(|p| p.partitions == self.cluster.threads)
            })
    }

    /// Keys enter in output order; tags enter as an order-free sum over
    /// (key, tag) pairs. Equal-keyed records may trade places without the
    /// output changing (`canonical_equal` says as much), and between the
    /// sequential and the partitioned engine they do.
    fn digest(&self, out: &SortOut) -> u64 {
        let mut h = Fnv::new();
        for r in &out.passes {
            h.u64(r.makespan.as_nanos());
            h.u64(r.records_processed);
        }
        let mut pairs = 0u64;
        for r in out.output.iter().flat_map(|p| p.records()) {
            h.u64(r.key() as u64);
            let mut pair = Fnv::new();
            pair.u64(r.key() as u64);
            pair.u64(r.tag());
            pairs = pairs.wrapping_add(pair.get());
        }
        h.u64(pairs);
        h.get()
    }

    fn sim_makespan_ms(&self, out: &SortOut) -> f64 {
        out.passes.iter().map(|r| ms(r.makespan)).sum()
    }

    fn counts(&self, out: &SortOut, m: &mut Metrics) {
        report_counts(&out.passes.iter().collect::<Vec<_>>(), m);
        m.set("sort.fault.recovered_records", out.recovered as f64);
    }

    fn traced_rep(&self, tr: &mut Tracer) -> TracedRep {
        let (cluster, dsm, d) = (&self.cluster, &self.dsm, self.cluster.asus);
        let spec = self.fault_spec();
        let clock = Arc::new(FunctorClock::default());
        let data = self.data.clone();
        let mut pass1_events = 0;
        let out = tr.span("rep", |tr| {
            let splitters = tr.span("sort.dsm.splitters", |_| choose_splitters(&data, dsm.alpha));
            // Record by record, as `run_dsm_sort_faulty` builds it: a bulk
            // `collect` would be faster than what is being recomposed.
            let by_tag = self.chaos.as_ref().map(|_| {
                tr.span("sort.fault.index", |_| {
                    let mut by_tag = BTreeMap::new();
                    for r in &data {
                        by_tag.insert(r.tag(), r.clone());
                    }
                    by_tag
                })
            });
            let per_asu = tr.span("sort.dsm.split", |_| {
                let per_asu = split_across_asus(&data, d);
                drop(data);
                per_asu
            });
            let built = tr.span("emulator.build", |_| {
                build_pass1_job(cluster, per_asu, splitters.clone(), dsm, self.mode)
                    .expect("pass-1 job builds")
            });
            let job = tr.span("bench.wrap", |_| wrap_job(built.job, &clock));
            let p1 = tr.span("emulator.run_job.pass1", |tr| {
                // With an inactive spec this is exactly `run_job`.
                let report = run_job_with_faults(&built.cluster, &spec, job);
                tr.accumulated("core.functor.pass1", clock.ns());
                report.expect("pass 1 runs")
            });
            pass1_events = p1.dispatched;
            let mut runs: Vec<Vec<Packet<Rec128>>> = tr.span("sort.dsm.collect_runs", |_| {
                let of = |asu| p1.sink_outputs.get(&(built.collect.0, asu));
                (0..d)
                    .map(|asu| {
                        of(asu)
                            .into_iter()
                            .flatten()
                            .map(|(_, p)| p.clone())
                            .collect()
                    })
                    .collect()
            });
            let (repair, recovered) = by_tag.map_or((None, 0), |by_tag| {
                tr.span("sort.fault.repair", |tr| {
                    self.repair_lost(tr, by_tag, &p1, &mut runs, &splitters)
                })
            });
            let p2 = tr.span("sort.dsm.pass2", |_| {
                run_pass2(cluster, runs, splitters.clone(), dsm).expect("pass 2 runs")
            });
            SortOut {
                passes: [Some(p1), repair, Some(p2.report)]
                    .into_iter()
                    .flatten()
                    .collect(),
                output: p2.output,
                recovered,
            }
        });
        tr.span("sort.verify", |_| {
            let sorted = reconstruct_sorted(&out.output).expect("traced output is sorted");
            check_tag_permutation(sorted.iter().map(Rec128::tag), self.records())
                .expect("traced output is a permutation of the input");
        });
        let digest = self.digest(&out);
        drop(out);
        // The unwrapped pass 1 through the sort layer's own entry: what
        // the wrapped build + run_job + collect is compared against. It
        // starts as the wrapped one did, with the last job's output freed.
        let splitters = choose_splitters(&self.data, dsm.alpha);
        let per_asu = split_across_asus(&self.data, d);
        // With an inactive spec this is exactly `run_pass1`. The result
        // leaves the span alive: freeing it is not part of the pass.
        let unwrapped = tr.span("sort.dsm.pass1", |_| {
            run_pass1_with(cluster, &spec, per_asu, splitters, dsm, self.mode)
                .expect("unwrapped pass 1 runs")
        });
        drop(unwrapped);
        TracedRep {
            digest,
            functor_calls: clock.calls(),
            pass1_events,
        }
    }

    fn layers(
        &self,
        warm: &SortOut,
        tr: &Tracer,
        reps: &[TracedRep],
        wall_ms_p50: f64,
        m: &mut Metrics,
    ) {
        pass1_layer_metrics(tr, reps, m);
        m.set("sort.dsm.splitters_ms", tr.median_ms("sort.dsm.splitters"));
        m.set("sort.dsm.split_ms", tr.median_ms("sort.dsm.split"));
        m.set("sort.dsm.pass1_ms", tr.median_ms("sort.dsm.pass1"));
        m.set("sort.dsm.pass2_ms", tr.median_ms("sort.dsm.pass2"));
        m.set("sort.verify_ms", tr.median_ms("sort.verify"));
        let wrapped = [
            "emulator.build",
            "bench.wrap",
            "emulator.run_job.pass1",
            "sort.dsm.collect_runs",
        ]
        .iter()
        .map(|n| tr.median_ms(n))
        .sum::<f64>();
        m.set(
            "bench.trace_overhead_pct",
            100.0 * (wrapped / tr.median_ms("sort.dsm.pass1") - 1.0),
        );

        layers::kernel_and_packet_floors(&self.data, &self.dsm, m);

        if self.mode == LoadMode::Static {
            // The planner scores exactly this layout, so its prediction
            // can be held against the measured pass.
            let t = Instant::now();
            let (_, plan) =
                plan_pass1_coded::<Rec128>(&self.cluster, &self.dsm, self.records(), &[1])
                    .expect("static layout plans");
            m.set("plan.search_ms", elapsed_ns(t) as f64 / 1e6);
            let measured = warm.passes[0].makespan.as_nanos() as f64;
            m.set(
                "plan.pred_err_pct",
                100.0 * (plan.estimate.makespan_ns - measured).abs() / measured,
            );
        }

        if self.cluster.threads > 1 {
            // The identical job on the sequential engine, in this same
            // process: the wall-clock speedup ROADMAP item 1 asks for.
            let seq_cluster = self.cluster.with_threads(1);
            let seq_ms: Vec<f64> = (0..3)
                .map(|_| {
                    let data = self.data.clone();
                    let t = Instant::now();
                    black_box(self.entry(&seq_cluster, data));
                    elapsed_ns(t) as f64 / 1e6
                })
                .collect();
            m.set(
                "sim.par.wall_speedup",
                crate::stats::median(&seq_ms) / wall_ms_p50,
            );
        }
    }
}

// ------------------------------------------------------------ sched_mix

/// F-MT's hottest cell (ρ = 0.9, three tenants, weighted-fair,
/// interference-aware) stretched to about a thousand jobs.
pub struct SchedWl {
    cluster: ClusterConfig,
    dsm: DsmConfig,
    spec: SchedSpec,
    records: u64,
}

impl SchedWl {
    const KINDS: [u64; 2] = [2_500, 10_000];
    const MIX: [u64; 2] = [3, 1];
    const TENANTS: usize = 3;
    const UTIL: f64 = 0.9;
    const TARGET_JOBS: f64 = 1000.0;

    pub fn sched_mix(seed: u64) -> SchedWl {
        let cluster = ClusterConfig::era_2002(4, 4, 2.0);
        let dsm = DsmConfig::new(2, 256, 4, 64);
        // Offered utilization ρ with T tenants of mean inter-arrival M is
        // E[C]·T/M, with C the mix-weighted solo cost (as in `multi_tenant`).
        let cost = |records: u64| {
            let (_, solo) =
                plan_pass1_coded::<Rec8>(&cluster, &dsm, records, &[1]).expect("solo plan");
            solo.estimate.makespan_ns
        };
        let cost_ns = (3.0 * cost(Self::KINDS[0]) + cost(Self::KINDS[1])) / 4.0;
        let mean_ns = (cost_ns * Self::TENANTS as f64 / Self::UTIL) as u64;
        let horizon_ns = (Self::TARGET_JOBS / Self::TENANTS as f64 * mean_ns as f64) as u64;
        let arrivals = ArrivalSpec::poisson(
            seed,
            Self::TENANTS,
            SimDuration::from_nanos(mean_ns),
            SimDuration::from_nanos(horizon_ns),
            &Self::MIX,
        );
        let records = arrivals
            .sorted_events()
            .iter()
            .map(|e| Self::KINDS[e.kind])
            .sum();
        let spec = SchedSpec::new(arrivals, Self::KINDS.to_vec())
            .with_policy(Policy::WeightedFair)
            .with_quota(2)
            .with_queue_cap(64)
            .with_load_limit(1.2)
            .with_aware(true)
            .with_seed(seed);
        SchedWl {
            cluster,
            dsm,
            spec,
            records,
        }
    }

    fn run(&self, spec: &SchedSpec) -> SchedOutcome {
        run_scheduled(&self.cluster, &self.dsm, spec).expect("scheduled run completes")
    }
}

impl Workload for SchedWl {
    type Out = SchedOutcome;

    fn records(&self) -> u64 {
        self.records
    }

    fn rep(&self) -> Rep<SchedOutcome> {
        // The entry borrows the spec: nothing to clone.
        let t = Instant::now();
        let out = self.run(&self.spec);
        Rep {
            out,
            wall_ns: elapsed_ns(t),
            clone_ns: 0,
        }
    }

    fn verify(&self, out: &SchedOutcome) -> Result<(), String> {
        let admitted = out.jobs.iter().filter(|j| !j.rejected).count();
        if admitted < 100 {
            return Err(format!(
                "only {admitted} jobs admitted; percentiles need hundreds"
            ));
        }
        if out.completed() != admitted {
            return Err(format!(
                "{} of {admitted} admitted jobs completed",
                out.completed()
            ));
        }
        Ok(())
    }

    fn digest(&self, out: &SchedOutcome) -> u64 {
        let mut h = Fnv::new();
        h.u64(out.makespan.as_nanos());
        h.u64(out.records_processed);
        h.bytes(out.to_json().as_bytes());
        h.get()
    }

    /// Last completion of the merged run.
    fn sim_makespan_ms(&self, out: &SchedOutcome) -> f64 {
        ms(out.makespan)
    }

    /// `SchedOutcome` carries per-job usage but no node reports and no
    /// event count, so `sim.events` and the CPU occupancies stay 0 here.
    fn counts(&self, out: &SchedOutcome, m: &mut Metrics) {
        let usage = |f: fn(&lmas_emulator::StageUsage) -> u64| {
            out.jobs.iter().map(|j| f(&j.usage)).sum::<u64>() as f64
        };
        m.set("emulator.records_processed", out.records_processed as f64);
        m.set("emulator.nic_bytes_tx", usage(|u| u.nic_bytes));
        m.set(
            "emulator.disk_bytes",
            usage(|u| u.disk_read_bytes + u.disk_write_bytes),
        );
        m.set("sched.jobs_completed", out.completed() as f64);
        m.set("sched.jobs_rejected", out.rejections.len() as f64);
        m.set("sched.queue_wait_ms", ms(out.mean_queue_wait()));
        // At about a thousand jobs p95 has fifty samples beyond it.
        m.set(
            "sched.sim_job_ms_p50",
            out.latency_percentile(0.50).map_or(0.0, ms),
        );
        m.set(
            "sched.sim_job_ms_p95",
            out.latency_percentile(0.95).map_or(0.0, ms),
        );
    }

    /// `run_scheduled` is one opaque span: its parts (gate, merged
    /// runtime) have no public seams. The layers it leans on are probed
    /// beside it, per job: residual planning and job building.
    fn traced_rep(&self, tr: &mut Tracer) -> TracedRep {
        let out = tr.span("rep", |_| self.run(&self.spec));
        let naive = self.spec.clone().with_aware(false);
        drop(tr.span("sched.naive", |_| self.run(&naive)));
        let nodes = self.cluster.hosts + self.cluster.asus;
        tr.span("plan.search", |_| {
            for &k in &out.kinds {
                let full = ResidualCapacity::full(nodes);
                black_box(
                    plan_pass1_residual::<Rec8>(&self.cluster, &self.dsm, Self::KINDS[k], &full)
                        .expect("residual plan"),
                );
            }
        });
        let inputs: Vec<Vec<Rec8>> = out
            .kinds
            .iter()
            .enumerate()
            .map(|(j, &k)| {
                generate_rec8(Self::KINDS[k], KeyDist::Uniform, self.spec.seed ^ j as u64)
            })
            .collect();
        tr.span("emulator.build", |_| {
            for data in inputs {
                let splitters = choose_splitters(&data, self.dsm.alpha);
                let per_asu = split_across_asus(&data, self.cluster.asus);
                black_box(
                    build_pass1_job(
                        &self.cluster,
                        per_asu,
                        splitters,
                        &self.dsm,
                        LoadMode::Static,
                    )
                    .expect("job builds"),
                );
            }
        });
        TracedRep {
            digest: self.digest(&out),
            functor_calls: 0,
            pass1_events: 0,
        }
    }

    fn layers(
        &self,
        warm: &SchedOutcome,
        tr: &Tracer,
        _reps: &[TracedRep],
        wall_ms_p50: f64,
        m: &mut Metrics,
    ) {
        let naive = tr.median_ms("sched.naive");
        m.set(
            "sched.us_per_job",
            1e3 * wall_ms_p50 / warm.jobs.len().max(1) as f64,
        );
        m.set("sched.naive_wall_ms", naive);
        m.set("sched.aware_overhead_ms", tr.median_ms("rep") - naive);
        m.set("plan.search_ms", tr.median_ms("plan.search"));
        m.set("emulator.build_ms", tr.median_ms("emulator.build"));
    }
}

// ------------------------------------------------------------ terraflow

/// The paper's second application: watershed labelling of a fractal
/// terrain — restructure on the ASUs, DSM-Sort of composite-key cell
/// records, time-forward labelling on one host.
pub struct TerraWl {
    cluster: ClusterConfig,
    dsm: DsmConfig,
    grid: Grid,
}

impl TerraWl {
    /// The terrain every seed shares, and how much of the elevation is
    /// the seed's own relief. The labelling step costs cells × pending
    /// messages, and the pending count follows the terrain's large-scale
    /// shape: whole fractal terrains drawn from different seeds differ
    /// threefold in wall-clock (173 to 546 ms over ten seeds). A benchmark
    /// needs one cost, so the landscape is fixed and the seed adds relief.
    const LANDSCAPE_SEED: u64 = 2002;
    const RELIEF: f32 = 0.05;

    pub fn terraflow(seed: u64) -> TerraWl {
        TerraWl::of_side(seed, 193)
    }

    fn of_side(seed: u64, side: usize) -> TerraWl {
        let mut grid = fractal_terrain(side, side, 0.55, Self::LANDSCAPE_SEED);
        let relief = fractal_terrain(side, side, 0.55, seed);
        for y in 0..side {
            for x in 0..side {
                grid.set(
                    x,
                    y,
                    (1.0 - Self::RELIEF) * grid.at(x, y) + Self::RELIEF * relief.at(x, y),
                );
            }
        }
        TerraWl {
            cluster: ClusterConfig::era_2002(2, 8, 8.0),
            dsm: DsmConfig::new(8, 4096, 8, 64),
            grid,
        }
    }

    fn reports<'a>(&self, out: &'a TerraFlowOutcome) -> [&'a EmulationReport<CellRec>; 4] {
        [&out.step1, &out.sort.pass1, &out.sort.pass2, &out.step3]
    }
}

impl Workload for TerraWl {
    type Out = TerraFlowOutcome;

    fn records(&self) -> u64 {
        self.grid.len() as u64
    }

    fn rep(&self) -> Rep<TerraFlowOutcome> {
        // The entry borrows the grid: nothing to clone.
        let t = Instant::now();
        let out = run_terraflow(&self.cluster, &self.grid, &self.dsm, LoadMode::Static)
            .expect("terraflow runs");
        Rep {
            out,
            wall_ns: elapsed_ns(t),
            clone_ns: 0,
        }
    }

    fn verify(&self, out: &TerraFlowOutcome) -> Result<(), String> {
        if matches_oracle(&self.grid, out) {
            Ok(())
        } else {
            Err("watershed colors differ from the sequential oracle".into())
        }
    }

    fn digest(&self, out: &TerraFlowOutcome) -> u64 {
        let mut h = Fnv::new();
        for r in self.reports(out) {
            h.u64(r.makespan.as_nanos());
            h.u64(r.records_processed);
        }
        for &c in &out.colors {
            h.u64(c as u64);
        }
        h.get()
    }

    fn sim_makespan_ms(&self, out: &TerraFlowOutcome) -> f64 {
        ms(out.total())
    }

    fn counts(&self, out: &TerraFlowOutcome, m: &mut Metrics) {
        report_counts(&self.reports(out), m);
        m.set("gis.watersheds", out.watersheds as f64);
    }

    /// `run_terraflow` step by step: the step-1 job wrapped, the sort
    /// through its own entry, and step 3's two-stage graph rebuilt here
    /// with the labelling functor wrapped.
    fn traced_rep(&self, tr: &mut Tracer) -> TracedRep {
        let (cluster, dsm, grid) = (&self.cluster, &self.dsm, &self.grid);
        let clock1 = Arc::new(FunctorClock::default());
        let clock3 = Arc::new(FunctorClock::default());
        let out = tr.span("rep", |tr| {
            let step1 = tr.span("gis.step1", |tr| {
                let job = tr.span("emulator.build", |_| {
                    build_restructure_job(cluster, grid, dsm)
                });
                let job = tr.span("bench.wrap", |_| wrap_job(job, &clock1));
                tr.span("emulator.run_job.pass1", |tr| {
                    let report = run_job(cluster, job);
                    tr.accumulated("core.functor.pass1", clock1.ns());
                    report.expect("step 1 runs")
                })
            });
            let cells = tr.span("gis.cells", |_| step1.sink_records());
            let sort = tr.span("gis.sort", |_| {
                run_dsm_sort(cluster, cells, dsm, LoadMode::Static).expect("step 2 runs")
            });
            let sorted = tr.span("gis.reconstruct", |_| {
                reconstruct_sorted(&sort.output).expect("step 2 output is sorted")
            });
            let step3 = tr.span("gis.step3", |tr| {
                let mut g: FlowGraph<CellRec> = FlowGraph::new();
                let src = g.add_source_stage(1, |_| {
                    Box::new(RelayFunctor::new("stream-sorted")) as Box<dyn Functor<CellRec>>
                });
                let shed = g.add_stage(1, |_| {
                    Box::new(WatershedFunctor::new(1 << 16)) as Box<dyn Functor<CellRec>>
                });
                g.connect(src, shed, RoutingPolicy::Static, EdgeKind::Stream)
                    .expect("two-stage stream");
                let mut placement = Placement::new();
                placement.assign(src, 0, NodeId::Asu(0));
                placement.assign(shed, 0, NodeId::Host(0));
                let mut inputs = BTreeMap::new();
                inputs.insert((src.0, 0usize), packetize(sorted, dsm.input_packet_records));
                let job = wrap_job(
                    Job {
                        graph: g,
                        placement,
                        inputs,
                    },
                    &clock3,
                );
                let report = run_job(cluster, job);
                tr.accumulated("gis.label", clock3.ns());
                report.expect("step 3 runs")
            });
            tr.span("gis.harvest", |_| {
                let w = grid.width();
                let mut colors = vec![0u32; grid.len()];
                let mut watersheds = 0;
                for c in step3.sink_packets().flat_map(|p| p.records()) {
                    colors[c.y as usize * w + c.x as usize] = c.color;
                    watersheds = watersheds.max(c.color + 1);
                }
                let times = (step1.makespan, sort.total, step3.makespan);
                TerraFlowOutcome {
                    step1,
                    sort,
                    step3,
                    times,
                    colors,
                    watersheds,
                }
            })
        });
        drop(tr.span("gis.step1.unwrapped", |_| {
            run_job(cluster, build_restructure_job(cluster, grid, dsm)).expect("step 1 runs")
        }));
        TracedRep {
            digest: self.digest(&out),
            functor_calls: clock1.calls(),
            pass1_events: out.step1.dispatched,
        }
    }

    fn layers(
        &self,
        warm: &TerraFlowOutcome,
        tr: &Tracer,
        reps: &[TracedRep],
        _wall_ms_p50: f64,
        m: &mut Metrics,
    ) {
        pass1_layer_metrics(tr, reps, m);
        m.set("gis.step1_ms", tr.median_ms("gis.step1"));
        m.set("gis.sort_ms", tr.median_ms("gis.sort"));
        m.set("gis.step3_ms", tr.median_ms("gis.step3"));
        m.set(
            "bench.trace_overhead_pct",
            100.0 * (tr.median_ms("gis.step1") / tr.median_ms("gis.step1.unwrapped") - 1.0),
        );

        let sorted = reconstruct_sorted(&warm.sort.output).expect("warm-up output is sorted");
        let mut label_ms = Vec::new();
        let mut restructure_ms = Vec::new();
        for _ in 0..3 {
            let cells = sorted.clone();
            let mut labeler = WatershedLabeler::new(1 << 16);
            let t = Instant::now();
            for cell in cells {
                black_box(labeler.label(cell));
            }
            label_ms.push(elapsed_ns(t) as f64 / 1e6);
            assert_eq!(
                labeler.colors(),
                warm.watersheds,
                "label floor disagrees with the run"
            );
            let t = Instant::now();
            black_box(restructure(&self.grid));
            restructure_ms.push(elapsed_ns(t) as f64 / 1e6);
        }
        m.set("gis.label_floor_ms", crate::stats::median(&label_ms));
        m.set(
            "gis.restructure_floor_ms",
            crate::stats::median(&restructure_ms),
        );

        // The sort kernels on the cell records: composite keys take the
        // comparison path, not the u32 radix one.
        layers::kernel_and_packet_floors(&restructure(&self.grid), &self.dsm, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sort(seed: u64, threads: usize) -> SortWl {
        SortWl {
            cluster: ClusterConfig::era_2002(2, 4, 8.0).with_threads(threads),
            dsm: DsmConfig::new(4, 256, 4, 64),
            mode: LoadMode::managed_sr(),
            data: generate_rec128(1 << 13, KeyDist::Uniform, seed),
            chaos: None,
            seq_digest: None,
        }
    }

    /// The traced rep — job rebuilt through `wrap_job`, pipeline
    /// recomposed from the layers' public functions — is the same job as
    /// the untraced entry: same digest (virtual makespans, records
    /// processed, output), same pass-1 event count.
    fn assert_traced_equals_untraced(wl: &SortWl) {
        let plain = wl.rep().out;
        assert!(wl.verify(&plain).is_ok());
        let mut tr = Tracer::new();
        let traced = wl.traced_rep(&mut tr);
        assert_eq!(traced.digest, wl.digest(&plain));
        assert_eq!(traced.pass1_events, plain.passes[0].dispatched);
        assert!(traced.functor_calls > 0);
        assert!(tr.median_ms("core.functor.pass1") <= tr.median_ms("emulator.run_job.pass1"));
    }

    #[test]
    fn wrapped_sort_is_the_same_job_on_one_and_two_threads() {
        for threads in [1, 2] {
            assert_traced_equals_untraced(&small_sort(5, threads));
        }
    }

    #[test]
    fn recomposed_faulted_sort_is_the_same_job_on_one_and_two_threads() {
        let digests: Vec<u64> = [1, 2]
            .into_iter()
            .map(|threads| {
                let wl = SortWl::chaos(5, threads, ClusterConfig::era_2002(4, 8, 8.0), 1 << 13);
                assert_traced_equals_untraced(&wl);
                wl.digest(&wl.rep().out)
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn recomposed_terraflow_is_the_same_job() {
        let wl = TerraWl::of_side(5, 33);
        let plain = wl.rep().out;
        assert!(wl.verify(&plain).is_ok());
        let mut tr = Tracer::new();
        let traced = wl.traced_rep(&mut tr);
        assert_eq!(traced.digest, wl.digest(&plain));
        assert_eq!(traced.pass1_events, plain.step1.dispatched);
    }

    #[test]
    fn a_digest_tells_outputs_apart_but_not_the_order_of_equal_keys() {
        let wl = small_sort(5, 1);
        let out = wl.rep().out;
        let digest = wl.digest(&out);
        let mut records: Vec<Rec128> = out
            .output
            .iter()
            .flat_map(|p| p.records().to_vec())
            .collect();
        let rebuilt = |records: &[Rec128]| SortOut {
            passes: Vec::new(),
            output: vec![Packet::new(records.to_vec())],
            recovered: 0,
        };
        let base = wl.digest(&rebuilt(&records));
        assert_ne!(base, digest, "pass makespans are part of the digest");
        // Two records sharing a key trade places: same output.
        let (k, t0, t1) = (records[0].key(), records[0].tag(), records[1].tag());
        records[1] = Rec128::new(k, t1);
        let tied = wl.digest(&rebuilt(&records));
        records[0] = Rec128::new(k, t1);
        records[1] = Rec128::new(k, t0);
        assert_eq!(wl.digest(&rebuilt(&records)), tied);
        // A record goes missing in favour of a duplicate: different output.
        records[1] = Rec128::new(k, t1);
        assert_ne!(wl.digest(&rebuilt(&records)), tied);
    }

    #[test]
    fn the_seed_makes_the_inputs() {
        assert!(SortWl::sort_default(7).data == SortWl::sort_default(7).data);
        assert!(SortWl::sort_default(7).data != SortWl::sort_default(8).data);
        let cells = |seed| TerraWl::of_side(seed, 33).grid.quantized();
        assert_eq!(cells(7), cells(7));
        assert_ne!(cells(7), cells(8));
        let arrivals = |seed| SchedWl::sched_mix(seed).spec.arrivals.to_trace();
        assert_eq!(arrivals(7), arrivals(7));
        assert_ne!(arrivals(7), arrivals(8));
        assert_eq!(SchedWl::sched_mix(7).spec.seed, 7);
    }
}
