//! Placement search: deterministic greedy construction plus
//! first-improvement local search over the analytic estimator.
//!
//! The search space is the assignment of every `(stage, instance)` to a
//! node, subject to pins (data residency) and the functor's placement
//! contract. Moves are *migrate* (one instance to another feasible
//! node) and *swap* (exchange the nodes of two instances of different
//! stages); *re-replicate* is handled one level up by the caller
//! (`lmas_sort::planner::sweep_pass1`), which plans one candidate per
//! replication degree on a shared [`Planner`] and keeps the best. The
//! search has no RNG: same spec + shape → byte-identical placement and
//! report.
//!
//! A plan costs what its arithmetic costs: [`Planner`] loads the
//! assignment-independent rates once per plan, scores every probe out
//! of buffers it keeps between plans, and builds an [`Estimate`] only
//! for the assignment it hands out.

use crate::estimate::{score, Estimate, Rates, Scratch};
use crate::model::{ClusterShape, PlanError, PlanSpec};
use crate::report::PlanReport;
use crate::residual::ResidualCapacity;
use lmas_core::placement::{NodeId, Placement, StageId};

/// A finished plan: the validated placement plus its report.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The assignment, ready for the emulator.
    pub placement: Placement,
    /// Machine-readable account of the decision.
    pub report: PlanReport,
    /// Raw per-stage, per-instance node assignment.
    pub assignment: Vec<Vec<NodeId>>,
    /// The estimator's verdict on the final assignment.
    pub estimate: Estimate,
}

/// Search knobs (fixed defaults keep runs identical across sessions).
const MAX_ROUNDS: usize = 8;
const MAX_MOVES: usize = 512;
/// Improvement threshold in nanoseconds: moves must beat the incumbent
/// by a full nanosecond to be taken, so f64 dust cannot flip decisions.
const EPS_NS: f64 = 1.0;

/// Reusable planning state: the rate tables of the plan in progress
/// and the estimator's scratch vectors. A caller that plans many jobs
/// (the scheduler: one plan per arrival) keeps one `Planner` and pays
/// for buffers once; [`plan_residual`] and
/// [`estimate_residual`](crate::estimate::estimate_residual) are
/// one-shot wrappers. Results never depend on what was planned before.
#[derive(Debug, Default)]
pub struct Planner {
    rates: Rates,
    scratch: Scratch,
    topo: Vec<usize>,
    /// Kahn's in-degree and ready list for `topo`.
    topo_work: (Vec<usize>, Vec<usize>),
    /// One stage's nodes, set aside by rehome and canonicalization.
    saved: Vec<NodeId>,
}

/// The incumbent of the local search: its makespan and its secondary
/// objective, the sum of squared per-node CPU demand. The makespan is
/// a *max* over node bounds, so unloading one of several equally
/// saturated nodes leaves it flat — a plateau first-improvement search
/// cannot cross (moving each of four overloaded instances helps only
/// once all four have moved). Accepting makespan-neutral moves that
/// strictly reduce the imbalance walks the search off such plateaus
/// deterministically.
struct Incumbent {
    makespan_ns: f64,
    imbalance: f64,
}

impl Incumbent {
    /// Take the assignment just scored into `w` when it beats the
    /// incumbent makespan, or holds it while strictly evening out
    /// per-node CPU demand.
    fn improved_by(&mut self, makespan_ns: f64, w: &Scratch) -> bool {
        let imbalance = w.imbalance();
        let accept = makespan_ns < self.makespan_ns - EPS_NS
            || (makespan_ns < self.makespan_ns + EPS_NS && imbalance < self.imbalance - 1.0);
        if accept {
            *self = Incumbent { makespan_ns, imbalance };
        }
        accept
    }
}

impl Planner {
    /// A planner with empty buffers.
    pub fn new() -> Planner {
        Planner::default()
    }

    /// [`estimate_residual`](crate::estimate::estimate_residual) on
    /// this planner's buffers.
    pub fn estimate_residual(
        &mut self,
        spec: &PlanSpec,
        shape: &ClusterShape,
        asg: &[Vec<NodeId>],
        topo: &[usize],
        res: &ResidualCapacity,
    ) -> Estimate {
        self.rates.load(spec, shape, res);
        self.scratch.fit(spec.stages.len(), shape.total_nodes());
        score(&self.rates, &mut self.scratch, spec, shape, asg, topo);
        self.scratch.to_estimate(spec, &self.rates)
    }

    /// [`plan_residual`] on this planner's buffers.
    pub fn plan_residual(
        &mut self,
        spec: &PlanSpec,
        shape: &ClusterShape,
        res: &ResidualCapacity,
    ) -> Result<PlanOutcome, PlanError> {
        if res.len() != shape.total_nodes() {
            return Err(PlanError::ResidualShape {
                expected: shape.total_nodes(),
                got: res.len(),
            });
        }
        let Planner { rates, scratch, topo, topo_work, saved } = self;
        spec.topo_order_into(topo, topo_work)?;
        let topo = &topo[..];
        let nstages = spec.stages.len();

        // Feasibility and pin validation up front. A stage's feasible
        // nodes are a prefix of planner order (hosts, then ASUs): all
        // of it when the functor may run on an ASU, the hosts otherwise.
        let feasible = |s: usize| -> usize {
            if spec.stages[s].kind.asu_placeable(shape.asu_mem) {
                shape.total_nodes()
            } else {
                shape.hosts
            }
        };
        for (s, st) in spec.stages.iter().enumerate() {
            if feasible(s) == 0 {
                return Err(PlanError::NoFeasibleNode { stage: s });
            }
            for pin in st.pinned.iter().flatten() {
                let in_cluster = match *pin {
                    NodeId::Host(i) => i < shape.hosts,
                    NodeId::Asu(i) => i < shape.asus,
                };
                if !in_cluster || (pin.is_asu() && !st.kind.asu_placeable(shape.asu_mem)) {
                    return Err(PlanError::BadPin { stage: s });
                }
            }
        }
        rates.load(spec, shape, res);
        scratch.fit(nstages, shape.total_nodes());
        let cands = |s: usize| &rates.nodes[..feasible(s)];
        let allows = |s: usize, node: NodeId| rates.index(node) < feasible(s);

        // Greedy seed: stages in topo order, instances dealt round-robin
        // across the feasible nodes. Pins win outright.
        let mut asg: Vec<Vec<NodeId>> = vec![Vec::new(); nstages];
        for &s in topo {
            let st = &spec.stages[s];
            let cands = cands(s);
            asg[s] = (0..st.replication)
                .map(|i| {
                    st.pinned
                        .get(i)
                        .copied()
                        .flatten()
                        .unwrap_or(cands[i % cands.len()])
                })
                .collect();
        }

        // First-improvement local search: migrate, then swap, to fixpoint.
        let mut best = Incumbent {
            makespan_ns: score(rates, scratch, spec, shape, &asg, topo),
            imbalance: scratch.imbalance(),
        };
        let mut moves_applied = 0usize;
        let pinned = |s: usize, i: usize| -> bool {
            spec.stages[s].pinned.get(i).copied().flatten().is_some()
        };
        'search: for _round in 0..MAX_ROUNDS {
            let mut improved = false;
            // Migrate: every unpinned instance tries every other node.
            for s in 0..nstages {
                for i in 0..spec.stages[s].replication {
                    if pinned(s, i) {
                        continue;
                    }
                    let cur = asg[s][i];
                    for &cand in cands(s) {
                        if cand == cur {
                            continue;
                        }
                        asg[s][i] = cand;
                        let mk = score(rates, scratch, spec, shape, &asg, topo);
                        if best.improved_by(mk, scratch) {
                            improved = true;
                            moves_applied += 1;
                            if moves_applied >= MAX_MOVES {
                                break 'search;
                            }
                            break; // keep this node, rescan later
                        }
                        asg[s][i] = cur;
                    }
                }
            }
            // Swap: exchange nodes across stage pairs (useful when both
            // stages are at their per-stage optimum but contend on a node).
            for s in 0..nstages {
                for t in (s + 1)..nstages {
                    for i in 0..spec.stages[s].replication {
                        for j in 0..spec.stages[t].replication {
                            if pinned(s, i) || pinned(t, j) {
                                continue;
                            }
                            let (a, b) = (asg[s][i], asg[t][j]);
                            if a == b || !allows(s, b) || !allows(t, a) {
                                continue;
                            }
                            asg[s][i] = b;
                            asg[t][j] = a;
                            let mk = score(rates, scratch, spec, shape, &asg, topo);
                            if best.improved_by(mk, scratch) {
                                improved = true;
                                moves_applied += 1;
                                if moves_applied >= MAX_MOVES {
                                    break 'search;
                                }
                            } else {
                                asg[s][i] = a;
                                asg[t][j] = b;
                            }
                        }
                    }
                }
            }
            // Rehome: a stage straddling slow nodes can sit behind a
            // multi-move barrier — migrating any single replica off a slow
            // node looks worse until the *last* one leaves, because the
            // slowest remaining replica still paces the whole stage while
            // the fast node's backlog grows. Jumping every unpinned replica
            // of the stage onto the host candidates (round-robin) crosses
            // that barrier as one compound move.
            for s in 0..nstages {
                // Every stage's candidates start with all the hosts.
                let hosts = &rates.nodes[..shape.hosts];
                if hosts.is_empty() {
                    continue;
                }
                saved.clear();
                saved.extend_from_slice(&asg[s]);
                let mut dealt = 0usize;
                for (i, slot) in asg[s].iter_mut().enumerate() {
                    if !pinned(s, i) {
                        *slot = hosts[dealt % hosts.len()];
                        dealt += 1;
                    }
                }
                if asg[s] == *saved {
                    continue;
                }
                let mk = score(rates, scratch, spec, shape, &asg, topo);
                if best.improved_by(mk, scratch) {
                    improved = true;
                    moves_applied += 1;
                    if moves_applied >= MAX_MOVES {
                        break 'search;
                    }
                } else {
                    asg[s].copy_from_slice(saved);
                }
            }
            if !improved {
                break;
            }
        }

        // Canonical form: instances of one stage are symmetric in the model
        // (each carries the same share of records), so permuting a stage's
        // nodes across its unpinned instances estimates identically. Sort
        // each stage's unpinned nodes (hosts first, then ASUs, index
        // ascending) so tied layouts always materialize the same way —
        // e.g. k = 1 all-on-hosts becomes the paper's contiguous static
        // assignment instead of an artifact of move order. Re-score so the
        // report describes exactly the assignment handed out.
        for (s, stage_nodes) in asg.iter_mut().enumerate() {
            let unpinned = |i: &usize| !pinned(s, *i);
            saved.clear();
            saved.extend((0..stage_nodes.len()).filter(unpinned).map(|i| stage_nodes[i]));
            saved.sort_by_key(|&n| rates.index(n));
            for (i, &n) in (0..stage_nodes.len()).filter(unpinned).zip(saved.iter()) {
                stage_nodes[i] = n;
            }
        }
        score(rates, scratch, spec, shape, &asg, topo);
        let estimate = scratch.to_estimate(spec, rates);

        // Materialize and self-check: an invalid placement is a typed
        // planner bug, never an artifact handed to the caller.
        let mut placement = Placement::new();
        for (s, nodes) in asg.iter().enumerate() {
            for (i, &node) in nodes.iter().enumerate() {
                placement.assign(StageId(s), i, node);
            }
        }
        placement
            .validate(&spec.placement_rows(), shape.asu_mem)
            .map_err(PlanError::Invalid)?;

        let report = PlanReport::from_plan(spec, shape, &asg, &estimate, moves_applied);
        Ok(PlanOutcome {
            placement,
            report,
            assignment: asg,
            estimate,
        })
    }
}

/// Plan a single spec: seed an assignment, refine it, validate it.
pub fn plan(
    spec: &PlanSpec,
    shape: &ClusterShape,
) -> Result<PlanOutcome, PlanError> {
    plan_residual(spec, shape, &ResidualCapacity::full(shape.total_nodes()))
}

/// [`plan`], but scored against the residual capacity of a cluster
/// with other jobs running (see
/// [`estimate_residual`](crate::estimate::estimate_residual)): the
/// search places this job *around* the occupied nodes. A
/// [`ResidualCapacity::full`] view reproduces [`plan`] bit for bit.
///
/// One-shot wrapper over [`Planner::plan_residual`].
pub fn plan_residual(
    spec: &PlanSpec,
    shape: &ClusterShape,
    res: &ResidualCapacity,
) -> Result<PlanOutcome, PlanError> {
    Planner::new().plan_residual(spec, shape, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PlanEdge, StageSpec};
    use lmas_core::cost::Work;
    use lmas_core::functor::FunctorKind;

    fn eligible() -> FunctorKind {
        FunctorKind::AsuEligible { max_state_bytes: 0 }
    }

    /// A source on ASUs feeding a CPU-heavy stage: the planner must put
    /// the heavy stage on the fast hosts, not the 1/8-speed ASUs.
    #[test]
    fn planner_moves_heavy_work_to_hosts() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("scan", 2, eligible())
                    .with_source(128 * 400_000)
                    .with_work(Work::moves(1), 400_000)
                    .pinned_per_asu(2),
                StageSpec::new("crunch", 2, eligible())
                    .with_work(Work::compares(32) + Work::moves(1), 400_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(2, 2, 8.0);
        let out = plan(&spec, &shape).expect("plans");
        for i in 0..2 {
            let node = out.placement.node_of(StageId(1), i).unwrap();
            assert!(
                !node.is_asu(),
                "heavy stage instance {i} landed on {node}"
            );
        }
        // Pins survived.
        assert_eq!(
            out.placement.node_of(StageId(0), 1),
            Some(NodeId::Asu(1))
        );
    }

    /// Light relay work next to pinned data should stay on the ASU
    /// rather than drag every record across a slow link twice.
    #[test]
    fn planner_keeps_light_work_near_data() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("scan", 1, eligible())
                    .with_source(128 * 2_000_000)
                    .with_work(Work::ZERO, 2_000_000)
                    .pinned_per_asu(1),
                StageSpec::new("relay", 1, eligible())
                    .with_work(Work::ZERO, 2_000_000),
                StageSpec::new("store", 1, eligible())
                    .with_work(Work::ZERO, 2_000_000)
                    .with_sink_bytes(128 * 2_000_000)
                    .pinned_per_asu(1),
            ],
            edges: vec![
                PlanEdge { from: 0, to: 1 },
                PlanEdge { from: 1, to: 2 },
            ],
        };
        // A 10 MB/s link makes off-node routing ruinously expensive.
        let shape = ClusterShape {
            link_rate: 10.0e6,
            ..ClusterShape::era_2002(1, 1, 8.0)
        };
        let out = plan(&spec, &shape).expect("plans");
        let relay = out.placement.node_of(StageId(1), 0).unwrap();
        assert!(
            relay.is_asu(),
            "zero-cost relay left the data path: {relay}"
        );
    }

    #[test]
    fn host_only_stage_on_hostless_cluster_is_typed_error() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("m", 1, FunctorKind::HostOnly)],
            edges: vec![],
        };
        let shape = ClusterShape::era_2002(0, 2, 8.0);
        assert_eq!(
            plan(&spec, &shape).unwrap_err(),
            PlanError::NoFeasibleNode { stage: 0 }
        );
    }

    #[test]
    fn bad_pin_rejected() {
        // Pin onto an ASU that does not exist.
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("s", 1, eligible())
                .with_pins(vec![Some(NodeId::Asu(7))])],
            edges: vec![],
        };
        let shape = ClusterShape::era_2002(1, 2, 8.0);
        assert_eq!(
            plan(&spec, &shape).unwrap_err(),
            PlanError::BadPin { stage: 0 }
        );
        // Pin a host-only stage onto an ASU.
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("m", 1, FunctorKind::HostOnly)
                .with_pins(vec![Some(NodeId::Asu(0))])],
            edges: vec![],
        };
        assert_eq!(
            plan(&spec, &shape).unwrap_err(),
            PlanError::BadPin { stage: 0 }
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("a", 3, eligible())
                    .with_source(128 * 90_000)
                    .with_work(Work::compares(2), 90_000),
                StageSpec::new("b", 4, eligible())
                    .with_work(Work::compares(9) + Work::moves(1), 90_000),
                StageSpec::new("c", 2, eligible())
                    .with_work(Work::moves(1), 90_000)
                    .with_sink_bytes(128 * 90_000),
            ],
            edges: vec![
                PlanEdge { from: 0, to: 1 },
                PlanEdge { from: 1, to: 2 },
            ],
        };
        let shape = ClusterShape::era_2002(2, 3, 8.0);
        let a = plan(&spec, &shape).expect("plans");
        let b = plan(&spec, &shape).expect("plans");
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(
            a.estimate.makespan_ns.to_bits(),
            b.estimate.makespan_ns.to_bits()
        );
        assert_eq!(a.report.render_json(), b.report.render_json());
    }

    #[test]
    fn residual_search_places_around_loaded_hosts() {
        // Two identical hosts; host 0 is 90% busy with someone else's
        // job. The empty-cluster plan is free to use host 0; the
        // residual plan must put the heavy stage on host 1.
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("scan", 1, eligible())
                    .with_source(128 * 400_000)
                    .with_work(Work::moves(1), 400_000)
                    .pinned_per_asu(1),
                StageSpec::new("crunch", 1, FunctorKind::HostOnly)
                    .with_work(Work::compares(32) + Work::moves(1), 400_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(2, 1, 8.0);
        let mut res = ResidualCapacity::full(shape.total_nodes());
        res.occupy(0, 0.9, 0.9, 0.9);
        let out = plan_residual(&spec, &shape, &res).expect("plans");
        assert_eq!(
            out.placement.node_of(StageId(1), 0),
            Some(NodeId::Host(1)),
            "crunch must avoid the saturated host"
        );
        // Full residual reproduces plan() exactly.
        let a = plan(&spec, &shape).expect("plans");
        let b = plan_residual(&spec, &shape, &ResidualCapacity::full(shape.total_nodes()))
            .expect("plans");
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.estimate.makespan_ns.to_bits(), b.estimate.makespan_ns.to_bits());
    }

    #[test]
    fn residual_shape_mismatch_is_typed_error() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("s", 1, eligible())],
            edges: vec![],
        };
        let shape = ClusterShape::era_2002(2, 2, 8.0);
        assert_eq!(
            plan_residual(&spec, &shape, &ResidualCapacity::full(3)).unwrap_err(),
            PlanError::ResidualShape { expected: 4, got: 3 }
        );
    }
}
