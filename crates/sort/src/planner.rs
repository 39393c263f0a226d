//! Planner wiring for DSM-Sort: the two passes declared as
//! [`PlanSpec`]s, the emulated cluster as a [`ClusterShape`], and the
//! entry points that turn them into placements — the `LoadMode::Auto`
//! sweeps, the coded-shuffle r-sweep, and [`Pass1Planner`], the
//! per-job-kind planner a multi-tenant scheduler calls once per
//! arrival.

use crate::config::DsmConfig;
use crate::dsm::{static_host_of, DsmError};
use lmas_core::functor::FunctorKind;
use lmas_core::{log2_ceil, NodeId, Record, Work};
use lmas_emulator::ClusterConfig;
use lmas_plan::{
    plan, ClusterShape, CodedPoint, Estimate, PlanEdge, PlanError, PlanOutcome, PlanSpec, Planner,
    ResidualCapacity, StageSpec,
};

/// The planner's cluster model for this emulated cluster: same H/D/c
/// (with background CPU interference folded into the effective ratio),
/// cost model, aggregate disk rates, and link parameters.
pub fn planner_shape(cluster: &ClusterConfig) -> ClusterShape {
    ClusterShape {
        hosts: cluster.hosts,
        asus: cluster.asus,
        cpu_ratio_c: cluster.effective_cpu_ratio(),
        cost: cluster.cost,
        asu_disk_rate: cluster.disk.rate_bytes_per_sec
            * (1.0 - cluster.background_asu_disk)
            * cluster.storage.disks as f64,
        host_disk_rate: cluster.disk.rate_bytes_per_sec,
        link_rate: cluster.link_bytes_per_sec,
        link_latency_ns: cluster.link_latency.as_nanos() as f64,
        asu_mem: cluster.asu_mem_bytes,
    }
}

/// Pass-1 planner spec with `k` block-sort replicas per subset and a
/// coded broadcast-group size `r` on the distribute edge. The
/// per-record work mirrors the functors' own `cost()` declarations
/// (distribute: `log α` compares plus 1 move; block sort: `log β`
/// compares plus 1 move), distribute and collect are pinned to the
/// data's ASUs, and the block-sort stage is free for the planner to place.
pub(crate) fn pass1_spec<R: Record>(
    dsm: &DsmConfig,
    d: usize,
    n: u64,
    k: usize,
    r: usize,
) -> PlanSpec {
    let bytes = n * R::SIZE as u64;
    let splitter_bytes = (dsm.alpha - 1) * std::mem::size_of::<R::Key>() + 64;
    PlanSpec {
        record_bytes: R::SIZE as u64,
        stages: vec![
            StageSpec::new(
                "distribute",
                d,
                FunctorKind::AsuEligible {
                    max_state_bytes: splitter_bytes,
                },
            )
            .with_work(
                Work::compares(log2_ceil(dsm.alpha as u64)) + Work::moves(1),
                n,
            )
            .with_source(bytes)
            .with_packet_records(dsm.input_packet_records as u64)
            .pinned_per_asu(d),
            StageSpec::new(
                "block-sort",
                dsm.alpha * k,
                FunctorKind::VerifiedKernel {
                    max_state_bytes: 2 * dsm.beta * R::SIZE,
                },
            )
            .with_work(
                Work::compares(log2_ceil(dsm.beta as u64)) + Work::moves(1),
                n,
            )
            .with_packet_records(dsm.input_packet_records as u64)
            .with_coded(r),
            StageSpec::new(
                "collect-runs",
                d,
                FunctorKind::AsuEligible { max_state_bytes: 0 },
            )
            .with_work(Work::ZERO, n)
            .with_sink_bytes(bytes)
            .with_packet_records(dsm.beta as u64)
            .pinned_per_asu(d),
        ],
        edges: vec![PlanEdge { from: 0, to: 1 }, PlanEdge { from: 1, to: 2 }],
    }
}

/// Pass-2 planner spec: γ₁-way ASU merges (source, pinned), the
/// host-only final merge (a flush-time barrier, free to place), and the
/// striped collector (sink, pinned).
pub(crate) fn pass2_spec<R: Record>(dsm: &DsmConfig, d: usize, n: u64) -> PlanSpec {
    let bytes = n * R::SIZE as u64;
    let per_subset = n / dsm.alpha.max(1) as u64;
    let merged_run = (dsm.beta * dsm.gamma1) as u64;
    PlanSpec {
        record_bytes: R::SIZE as u64,
        stages: vec![
            StageSpec::new(
                "asu-merge",
                d,
                FunctorKind::VerifiedKernel {
                    max_state_bytes: usize::MAX,
                },
            )
            // Every record is buffered once and merged once: ~2 moves
            // plus log γ₁ compares, amortized (SubsetMergeFunctor's
            // trigger-priced cost()).
            .with_work(
                Work::compares(log2_ceil(dsm.gamma1 as u64)) + Work::moves(2),
                n,
            )
            .with_source(bytes)
            .with_packet_records(dsm.beta as u64)
            .pinned_per_asu(d),
            StageSpec::new("host-merge", dsm.alpha, FunctorKind::HostOnly)
                .with_work(Work::moves(1), n)
                .with_packet_records(merged_run.max(1))
                .with_coded(dsm.coded_r)
                .with_flush(
                    Work::compares(per_subset * log2_ceil(dsm.gamma2 as u64))
                        + Work::moves(per_subset),
                    true,
                ),
            StageSpec::new(
                "collect-sorted",
                d,
                FunctorKind::AsuEligible { max_state_bytes: 0 },
            )
            .with_work(Work::ZERO, n)
            .with_sink_bytes(bytes)
            .with_packet_records(dsm.stripe_records as u64)
            .pinned_per_asu(d),
        ],
        edges: vec![PlanEdge { from: 0, to: 1 }, PlanEdge { from: 1, to: 2 }],
    }
}

/// Candidate coded broadcast-group sizes for the r-sweep: an explicitly
/// configured `coded_r > 1` is forced; otherwise the powers of two
/// dividing α (so the α subset destinations partition into whole
/// groups).
fn coded_r_candidates(dsm: &DsmConfig) -> Vec<usize> {
    if dsm.coded_r > 1 {
        return vec![dsm.coded_r];
    }
    let mut out = Vec::new();
    let mut r = 1usize;
    while r <= dsm.alpha {
        if dsm.alpha.is_multiple_of(r) {
            out.push(r);
        }
        r *= 2;
    }
    out
}

/// Index of the block-sort stage in [`pass1_spec`] (and in the pass-1
/// flow graph).
const BLOCK_SORT: usize = 1;

/// Pass-1 planning for one job kind: everything that depends on
/// `(cluster, dsm, n, r)` — the [`PlanSpec`], the [`ClusterShape`], the
/// planner's buffers — built once, so that planning one more arrival of
/// the kind costs the search's arithmetic and nothing else. Results
/// never depend on earlier calls; the one-shot [`plan_pass1_residual`]
/// is this, built and dropped per call.
pub struct Pass1Planner {
    spec: PlanSpec,
    shape: ClusterShape,
    full: ResidualCapacity,
    planner: Planner,
    /// The static block-subset layout as sorter pins; filled by the
    /// first [`plan_static`](Self::plan_static).
    static_pins: Vec<Option<NodeId>>,
}

impl Pass1Planner {
    /// The scheduler's job shape: `n` records of `R`, one sorter per
    /// subset, `dsm`'s configured coded group.
    pub fn new<R: Record>(cluster: &ClusterConfig, dsm: &DsmConfig, n: u64) -> Pass1Planner {
        Self::for_cell::<R>(cluster, dsm, n, 1, dsm.coded_r.max(1))
    }

    /// One cell of the (k, r) sweep.
    fn for_cell<R: Record>(
        cluster: &ClusterConfig,
        dsm: &DsmConfig,
        n: u64,
        k: usize,
        r: usize,
    ) -> Pass1Planner {
        let shape = planner_shape(cluster);
        Pass1Planner {
            spec: pass1_spec::<R>(dsm, cluster.asus, n, k, r),
            shape,
            full: ResidualCapacity::full(shape.total_nodes()),
            planner: Planner::new(),
            static_pins: Vec::new(),
        }
    }

    /// Plan on an empty cluster.
    fn plan(&mut self) -> Result<PlanOutcome, DsmError> {
        self.planner
            .plan_residual(&self.spec, &self.shape, &self.full)
            .map_err(DsmError::Plan)
    }

    /// Plan the sorter layout against the residual capacity of a
    /// cluster that already has other tenants' jobs running (see
    /// [`lmas_plan::plan_residual`]): scored on residual rates, so the
    /// sorters land on the nodes the running jobs leave idle. The
    /// returned outcome's `assignment[1]` is the sorter layout for
    /// [`build_pass1_job_placed`](crate::dsm::build_pass1_job_placed);
    /// its `estimate` carries the predicted makespan and per-node busy
    /// times an admission gate turns into occupancy shares. A
    /// [`ResidualCapacity::full`] view reproduces the empty-cluster
    /// plan bit for bit.
    pub fn plan_residual(&mut self, res: &ResidualCapacity) -> Result<PlanOutcome, DsmError> {
        self.planner
            .plan_residual(&self.spec, &self.shape, res)
            .map_err(DsmError::Plan)
    }

    /// Plan on an empty cluster with every sorter pinned to the static
    /// block-subset layout (subset `i` on host
    /// [`static_host_of`]`(i)`): what [`LoadMode::Static`] runs,
    /// validated and scored. One sorter per subset only.
    ///
    /// [`LoadMode::Static`]: crate::config::LoadMode::Static
    pub fn plan_static(&mut self) -> Result<PlanOutcome, DsmError> {
        if self.static_pins.is_empty() {
            let alpha = self.spec.stages[BLOCK_SORT].replication;
            self.static_pins = (0..alpha)
                .map(|i| Some(NodeId::Host(static_host_of(i, alpha, self.shape.hosts))))
                .collect();
        }
        std::mem::swap(
            &mut self.spec.stages[BLOCK_SORT].pinned,
            &mut self.static_pins,
        );
        let planned = self.plan();
        std::mem::swap(
            &mut self.spec.stages[BLOCK_SORT].pinned,
            &mut self.static_pins,
        );
        planned
    }

    /// Score an assignment of this kind against an *empty* cluster:
    /// the job's standalone cost and per-node busy times at full rates.
    /// Residual estimates inflate with the congestion they were planned
    /// under, so an admission gate that accounted quota and load with
    /// them would under-charge jobs planned on a busy cluster —
    /// footprints must come from this solo view regardless of how the
    /// placement was chosen.
    pub fn estimate_solo(&mut self, assignment: &[Vec<NodeId>]) -> Estimate {
        self.planner
            .estimate_residual(&self.spec, &self.shape, assignment, &[0, 1, 2], &self.full)
    }
}

/// One-shot [`Pass1Planner::plan_residual`]. The returned outcome's
/// `assignment[1]` is the sorter layout for
/// [`build_pass1_job_placed`](crate::dsm::build_pass1_job_placed).
pub fn plan_pass1_residual<R: Record>(
    cluster: &ClusterConfig,
    dsm: &DsmConfig,
    n: u64,
    res: &ResidualCapacity,
) -> Result<PlanOutcome, DsmError> {
    Pass1Planner::new::<R>(cluster, dsm, n).plan_residual(res)
}

/// Uncoded remote payload bytes of the planned pass-1 distribute edge
/// (each sender's record share times its off-node destination
/// fraction): the shuffle volume a coded edge divides by `r`.
fn pass1_uncoded_shuffle_bytes<R: Record>(n: u64, out: &PlanOutcome) -> f64 {
    let dist = &out.assignment[0];
    let sorters = &out.assignment[1];
    if dist.is_empty() || sorters.is_empty() {
        return 0.0;
    }
    let recs = n as f64 / dist.len() as f64;
    dist.iter()
        .map(|&u| {
            let remote = sorters.iter().filter(|&&s| s != u).count() as f64 / sorters.len() as f64;
            recs * remote * R::SIZE as f64
        })
        .sum()
}

/// Joint sweep over block-sort replication `k` and coded group size `r`
/// (both enumerated ascending, r-major with `r = 1` first, so an
/// all-tie sweep resolves exactly as the historical k-only sweep did).
/// Lowest predicted makespan wins, ties go to the earliest candidate
/// (1 ns epsilon). The winning outcome carries the candidate counters
/// and the predicted per-r tradeoff curve.
fn sweep_pass1<R: Record>(
    cluster: &ClusterConfig,
    dsm: &DsmConfig,
    n: u64,
    max_k: usize,
    rcands: &[usize],
    pin_static: bool,
) -> Result<(usize, usize, PlanOutcome), DsmError> {
    let mut winner: Option<(usize, usize, PlanOutcome)> = None;
    let mut considered = 0usize;
    let mut rejected = 0usize;
    let mut last_err = None;
    let mut curve: Vec<CodedPoint> = Vec::new();
    for &r in rcands {
        // Best of this r-column, for the tradeoff curve.
        let mut col: Option<(f64, f64)> = None;
        for k in 1..=max_k {
            considered += 1;
            let mut cell = Pass1Planner::for_cell::<R>(cluster, dsm, n, k, r);
            // `pin_static` scores r on the exact static layout the
            // measured runs use, so planner-vs-measured comparisons
            // share a topology.
            let planned = if pin_static && k == 1 {
                cell.plan_static()
            } else {
                cell.plan()
            };
            match planned {
                Ok(outcome) => {
                    let mk = outcome.estimate.makespan_ns;
                    if col.map(|(m, _)| mk < m - 1.0).unwrap_or(true) {
                        col = Some((mk, pass1_uncoded_shuffle_bytes::<R>(n, &outcome)));
                    }
                    let better = winner
                        .as_ref()
                        .map(|(_, _, w)| mk < w.estimate.makespan_ns - 1.0)
                        .unwrap_or(true);
                    if better {
                        if winner.is_some() {
                            rejected += 1;
                        }
                        winner = Some((k, r, outcome));
                    } else {
                        rejected += 1;
                    }
                }
                Err(e) => {
                    rejected += 1;
                    last_err = Some(e);
                }
            }
        }
        if let Some((mk, uncoded)) = col {
            curve.push(CodedPoint {
                r,
                predicted_makespan_ns: mk as u64,
                predicted_nic_bytes: (uncoded / r as f64) as u64,
                extra_disk_bytes: (uncoded * (r - 1) as f64) as u64,
            });
        }
    }
    match winner {
        Some((k, r, mut outcome)) => {
            outcome.candidates_considered = considered;
            outcome.candidates_rejected = rejected;
            outcome.coded_curve = curve;
            Ok((k, r, outcome))
        }
        None => Err(last_err.unwrap_or(DsmError::Plan(PlanError::EmptySpec))),
    }
}

/// Plan pass 1: the joint sweep over replication degrees `k ∈ 1..=H`
/// (block-sort replicas per subset) and coded broadcast-group sizes,
/// scored by the analytic estimator; the lowest predicted makespan
/// wins. Returns `(k, r, plan)`.
pub(crate) fn plan_pass1<R: Record>(
    cluster: &ClusterConfig,
    dsm: &DsmConfig,
    n: u64,
) -> Result<(usize, usize, PlanOutcome), DsmError> {
    sweep_pass1::<R>(
        cluster,
        dsm,
        n,
        cluster.hosts,
        &coded_r_candidates(dsm),
        false,
    )
}

/// Plan pass 1 with the replication fixed at one sorter per subset
/// **pinned to the static layout**, sweeping only the coded
/// broadcast-group size over `r_candidates`. Returns the winning `r`
/// and its outcome (tradeoff curve attached) — the planner half of the
/// coded bench's "chosen r equals measured-best r" gate, scored on the
/// same topology `LoadMode::Static` runs measure.
pub fn plan_pass1_coded<R: Record>(
    cluster: &ClusterConfig,
    dsm: &DsmConfig,
    n: u64,
    r_candidates: &[usize],
) -> Result<(usize, PlanOutcome), DsmError> {
    sweep_pass1::<R>(cluster, dsm, n, 1, r_candidates, true).map(|(_, r, out)| (r, out))
}

/// Plan pass 2 (the host-merge placement; replication is structural —
/// one final merge per subset).
pub(crate) fn plan_pass2<R: Record>(
    cluster: &ClusterConfig,
    dsm: &DsmConfig,
    n: u64,
) -> Result<PlanOutcome, DsmError> {
    plan(
        &pass2_spec::<R>(dsm, cluster.asus, n),
        &planner_shape(cluster),
    )
    .map_err(DsmError::Plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coded_r_candidates_are_divisor_powers_of_two() {
        let c = DsmConfig::new(8, 64, 2, 4);
        assert_eq!(coded_r_candidates(&c), vec![1, 2, 4, 8]);
        // Forced by an explicit configuration.
        assert_eq!(coded_r_candidates(&c.with_coded(4)), vec![4]);
        // α = 12: 8 does not divide it.
        let c = DsmConfig::new(12, 64, 2, 4);
        assert_eq!(coded_r_candidates(&c), vec![1, 2, 4]);
    }

    #[test]
    fn sweep_counts_every_cell_and_ties_keep_the_earliest() {
        use lmas_core::Rec128;
        let cluster = ClusterConfig::era_2002(4, 8, 8.0);
        let dsm = DsmConfig::new(8, 64, 2, 4);
        let cells = cluster.hosts * coded_r_candidates(&dsm).len();
        let (_, _, out) = plan_pass1::<Rec128>(&cluster, &dsm, 400_000).expect("plans");
        assert_eq!(out.candidates_considered, cells);
        assert!(out.candidates_rejected >= 1);
        // Nothing to sort: every cell predicts the same makespan, so the
        // first one enumerated (k = 1, r = 1) must stand.
        let (k, r, out) = plan_pass1::<Rec128>(&cluster, &dsm, 0).expect("plans");
        assert_eq!((k, r), (1, 1));
        assert_eq!(out.candidates_considered, cells);
        assert_eq!(out.candidates_rejected, cells - 1);
    }

    #[test]
    fn planner_shape_mirrors_config() {
        let c = ClusterConfig::era_2002(1, 4, 4.0)
            .with_storage(lmas_emulator::StorageSpec::striped(2))
            .with_background(0.5, 0.25);
        let shape = planner_shape(&c);
        assert_eq!((shape.hosts, shape.asus), (1, 4));
        // Background load derates the ASUs' CPU and striped disks only.
        assert!((shape.cpu_ratio_c - 8.0).abs() < 1e-12);
        assert!((shape.asu_disk_rate - 2.0 * 75.0e6).abs() < 1.0);
        assert_eq!(shape.host_disk_rate, c.disk.rate_bytes_per_sec);
    }
}
