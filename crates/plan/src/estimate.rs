//! Analytic bottleneck-makespan estimator.
//!
//! Scores a candidate assignment without running the emulator. The
//! model is a pipelined critical path over the stage DAG, tightened by
//! per-node resource bounds:
//!
//! * **fill** — `ready(s)`: when the first packet reaches stage `s`
//!   (source read time, plus one packet of upstream processing and a
//!   link hop per edge; a *blocking* upstream stage forwards nothing
//!   until it has drained completely);
//! * **busy** — `busy(s)`: the stage's steady-state occupancy, the max
//!   over nodes of the CPU (and, for sources, disk) time its instances
//!   spend there;
//! * **drain** — `done(s)`: the later of "filled + busy" and "last
//!   upstream packet processed and flushed through `s`";
//! * **node bounds** — no schedule beats the total CPU / disk / NIC
//!   time any single node must serve, offset by when that node first
//!   has work.
//!
//! All arithmetic is f64 over integer inputs in a fixed order — the
//! estimate is a pure deterministic function of (spec, shape,
//! assignment).

use crate::model::{ClusterShape, PlanSpec};
use crate::residual::ResidualCapacity;
use crate::search::Planner;
use lmas_core::placement::NodeId;
use std::fmt;

/// What binds the predicted makespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bottleneck {
    /// The pipelined critical path through a sink stage.
    Pipeline {
        /// Name of the binding sink stage.
        stage: String,
    },
    /// Aggregate CPU demand on one node.
    Cpu {
        /// The saturated node.
        node: NodeId,
    },
    /// Aggregate disk demand on one node.
    Disk {
        /// The saturated node.
        node: NodeId,
    },
    /// Aggregate outbound link demand on one node.
    Link {
        /// The saturated node.
        node: NodeId,
    },
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bottleneck::Pipeline { stage } => write!(f, "pipeline:{stage}"),
            Bottleneck::Cpu { node } => write!(f, "cpu:{node}"),
            Bottleneck::Disk { node } => write!(f, "disk:{node}"),
            Bottleneck::Link { node } => write!(f, "link:{node}"),
        }
    }
}

/// Per-stage demand on each resource class: the max over the nodes the
/// stage's instances occupy of the CPU / disk / outbound-NIC time they
/// spend there. The largest of the three is what binds the stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageResource {
    /// CPU occupancy (ns) on the stage's most loaded node.
    pub cpu_ns: f64,
    /// Disk occupancy (ns), including any coded replicated writes.
    pub disk_ns: f64,
    /// Outbound NIC occupancy (ns) of the stage's out-edge.
    pub nic_ns: f64,
}

impl StageResource {
    /// Which resource class binds this stage.
    pub fn binds(&self) -> &'static str {
        if self.cpu_ns >= self.disk_ns && self.cpu_ns >= self.nic_ns {
            "cpu"
        } else if self.disk_ns >= self.nic_ns {
            "disk"
        } else {
            "nic"
        }
    }
}

/// The estimator's verdict on one assignment.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Predicted makespan in nanoseconds.
    pub makespan_ns: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
    /// Per-stage steady-state occupancy (ns), indexed like the spec.
    pub stage_busy_ns: Vec<f64>,
    /// Per-stage completion time (ns), indexed like the spec.
    pub stage_done_ns: Vec<f64>,
    /// Aggregate CPU time per node (planner node order).
    pub node_cpu_ns: Vec<(NodeId, f64)>,
    /// Aggregate disk time per node (planner node order).
    pub node_disk_ns: Vec<(NodeId, f64)>,
    /// Aggregate outbound NIC time per node (planner node order).
    pub node_nic_ns: Vec<(NodeId, f64)>,
    /// Per-stage resource attribution, indexed like the spec.
    pub stage_resources: Vec<StageResource>,
}

impl Estimate {
    /// Predicted throughput of stage `s` in records/sec (its record
    /// volume over its occupancy); infinite for stages with no work.
    pub fn stage_rate(&self, spec: &PlanSpec, s: usize) -> f64 {
        let busy = self.stage_busy_ns[s];
        if busy <= 0.0 {
            f64::INFINITY
        } else {
            spec.stages[s].records as f64 / (busy / 1e9)
        }
    }
}

/// Everything the estimate needs from `(spec, shape, residual)` that no
/// assignment can change, as tables indexed `[stage * nn + node]` or
/// `[node]`: what one instance of a stage costs a node it is put on
/// (work → ns through `cost.charge`, bytes → ns through the disk
/// rate), and the link rate it would send at. Built once per plan (the
/// residual changes with every arrival, so there is nothing to keep
/// across plans but the buffers), read by every probe of the search.
/// Each entry is the value of the expression the estimator would
/// otherwise evaluate per use, operand for operand.
#[derive(Debug, Default)]
pub(crate) struct Rates {
    hosts: usize,
    /// Node count; row stride of the per-(stage, node) tables.
    nn: usize,
    /// Planner node order: hosts, then ASUs.
    pub(crate) nodes: Vec<NodeId>,
    /// `cost.charge(per_record)` in ns.
    per_rec: Vec<f64>,
    /// `cost.charge(flush_per_instance)` in ns.
    flush: Vec<f64>,
    /// One instance's CPU time: `recs · per_rec + flush`.
    cpu: Vec<f64>,
    /// One instance's share of the stage's source reads, in disk ns.
    disk_in: Vec<f64>,
    /// One instance's share of the stage's sink writes, in disk ns.
    disk_out: Vec<f64>,
    /// One instance's share of reads and writes together, in disk ns.
    disk_io: Vec<f64>,
    /// One inbound packet of the stage through the node's disk, ns.
    packet_disk: Vec<f64>,
    /// Residual-scaled disk ns per byte, per node.
    disk_npb: Vec<f64>,
    /// Residual-scaled outbound-link ns per byte, per node.
    link_npb: Vec<f64>,
    /// Records per instance under even dealing, per stage.
    recs: Vec<f64>,
    /// Bytes of one inbound packet, per stage.
    packet_bytes: Vec<f64>,
}

impl Rates {
    /// Refill the tables for `(spec, shape, res)`, keeping the buffers.
    pub(crate) fn load(&mut self, spec: &PlanSpec, shape: &ClusterShape, res: &ResidualCapacity) {
        debug_assert_eq!(res.len(), shape.total_nodes());
        self.hosts = shape.hosts;
        self.nn = shape.total_nodes();
        self.nodes.clear();
        self.nodes.extend((0..shape.hosts).map(NodeId::Host));
        self.nodes.extend((0..shape.asus).map(NodeId::Asu));
        self.disk_npb.clear();
        self.link_npb.clear();
        for (ui, &node) in self.nodes.iter().enumerate() {
            self.disk_npb
                .push(1e9 / (shape.disk_rate(node) * res.disk[ui]));
            self.link_npb.push(1e9 / (shape.link_rate * res.nic[ui]));
        }
        for table in [
            &mut self.per_rec,
            &mut self.flush,
            &mut self.cpu,
            &mut self.disk_in,
            &mut self.disk_out,
            &mut self.disk_io,
            &mut self.packet_disk,
            &mut self.recs,
            &mut self.packet_bytes,
        ] {
            table.clear();
        }
        for st in &spec.stages {
            let recs = st.records as f64 / st.replication as f64;
            let packet_bytes = st.packet_records as f64 * spec.record_bytes as f64;
            self.recs.push(recs);
            self.packet_bytes.push(packet_bytes);
            for (ui, &node) in self.nodes.iter().enumerate() {
                let speed = shape.node_speed(node) * res.cpu[ui];
                let ns = |work| shape.cost.charge(work, speed).as_nanos() as f64;
                let (per_rec, flush) = (ns(st.per_record), ns(st.flush_per_instance));
                let disk_npb = self.disk_npb[ui];
                self.per_rec.push(per_rec);
                self.flush.push(flush);
                self.cpu.push(recs * per_rec + flush);
                self.disk_in
                    .push(st.bytes_in as f64 / st.replication as f64 * disk_npb);
                self.disk_out
                    .push(st.bytes_out as f64 / st.replication as f64 * disk_npb);
                self.disk_io
                    .push((st.bytes_in + st.bytes_out) as f64 / st.replication as f64 * disk_npb);
                self.packet_disk.push(packet_bytes * disk_npb);
            }
        }
    }

    /// Planner index of `node`.
    pub(crate) fn index(&self, node: NodeId) -> usize {
        ResidualCapacity::node_index(self.hosts, node)
    }
}

/// What binds the makespan of the last scored assignment, by index (a
/// [`Bottleneck`] without the stage-name allocation).
#[derive(Debug, Clone, Copy, Default)]
enum Binding {
    #[default]
    None,
    Pipeline(usize),
    Cpu(usize),
    Disk(usize),
    Link(usize),
}

/// The intermediate vectors of one estimate, sized by
/// [`fit`](Scratch::fit) and overwritten by every [`score`]. After a
/// call they hold everything an [`Estimate`] is made of, so the search
/// probes for free and only the final answer is copied out.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Planner node index of every instance, stage after stage.
    at: Vec<usize>,
    /// Where each stage's instances start in `at` (one past the end
    /// for the last).
    from: Vec<usize>,
    node_cpu: Vec<f64>,
    node_disk: Vec<f64>,
    node_nic: Vec<f64>,
    /// `[stage * nn + node]`.
    stage_nic_on: Vec<f64>,
    /// `[stage * nn + node]`.
    stage_coded_disk_on: Vec<f64>,
    cpu_on: Vec<f64>,
    disk_on: Vec<f64>,
    first_ready: Vec<f64>,
    slowest_per_rec: Vec<f64>,
    slowest_flush: Vec<f64>,
    stage_busy: Vec<f64>,
    ready: Vec<f64>,
    done: Vec<f64>,
    stage_resources: Vec<StageResource>,
    makespan: f64,
    binding: Binding,
}

/// Stage `s`'s row of a `[stage * nn + node]` table.
fn row_of(table: &[f64], s: usize, nn: usize) -> &[f64] {
    &table[s * nn..(s + 1) * nn]
}

fn peak(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, f64::max)
}

impl Scratch {
    /// Size every vector for `nstages` stages on `nn` nodes ([`score`]
    /// overwrites them in place).
    pub(crate) fn fit(&mut self, nstages: usize, nn: usize) {
        for per_node in [
            &mut self.node_cpu,
            &mut self.node_disk,
            &mut self.node_nic,
            &mut self.cpu_on,
            &mut self.disk_on,
            &mut self.first_ready,
        ] {
            per_node.resize(nn, 0.0);
        }
        for per_stage in [
            &mut self.slowest_per_rec,
            &mut self.slowest_flush,
            &mut self.stage_busy,
            &mut self.ready,
            &mut self.done,
        ] {
            per_stage.resize(nstages, 0.0);
        }
        self.stage_nic_on.resize(nstages * nn, 0.0);
        self.stage_coded_disk_on.resize(nstages * nn, 0.0);
        let idle = StageResource { cpu_ns: 0.0, disk_ns: 0.0, nic_ns: 0.0 };
        self.stage_resources.resize(nstages, idle);
    }

    /// Sum of squared per-node CPU demand of the last scored
    /// assignment (the search's plateau-escape objective).
    pub(crate) fn imbalance(&self) -> f64 {
        self.node_cpu.iter().map(|c| c * c).sum()
    }

    /// Copy the last scored assignment's verdict out.
    pub(crate) fn to_estimate(&self, spec: &PlanSpec, rates: &Rates) -> Estimate {
        let per_node = |v: &[f64]| rates.nodes.iter().copied().zip(v.iter().copied()).collect();
        let node = |ui: usize| rates.nodes[ui];
        Estimate {
            makespan_ns: self.makespan,
            bottleneck: match self.binding {
                Binding::None => unreachable!("to_estimate before any score"),
                Binding::Pipeline(s) => Bottleneck::Pipeline {
                    stage: spec.stages[s].name.clone(),
                },
                Binding::Cpu(ui) => Bottleneck::Cpu { node: node(ui) },
                Binding::Disk(ui) => Bottleneck::Disk { node: node(ui) },
                Binding::Link(ui) => Bottleneck::Link { node: node(ui) },
            },
            stage_busy_ns: self.stage_busy.clone(),
            stage_done_ns: self.done.clone(),
            node_cpu_ns: per_node(&self.node_cpu),
            node_disk_ns: per_node(&self.node_disk),
            node_nic_ns: per_node(&self.node_nic),
            stage_resources: self.stage_resources.clone(),
        }
    }
}

/// Score `asg` against the loaded `rates`; returns the predicted
/// makespan and leaves the rest of the estimate in `w`.
///
/// Bit-identity contract: this performs the f64 operations of the
/// estimator it replaced (kept as the test-only `reference` module) in
/// the same order — sums run over stages, edges and instances exactly
/// as listed, nothing is accumulated incrementally across probes — so
/// no 1 ns tie in the search can fall the other way.
pub(crate) fn score(
    rates: &Rates,
    w: &mut Scratch,
    spec: &PlanSpec,
    shape: &ClusterShape,
    asg: &[Vec<NodeId>],
    topo: &[usize],
) -> f64 {
    let nstages = spec.stages.len();
    let nn = rates.nn;
    let Scratch {
        at,
        from,
        node_cpu,
        node_disk,
        node_nic,
        stage_nic_on,
        stage_coded_disk_on,
        cpu_on,
        disk_on,
        first_ready,
        slowest_per_rec,
        slowest_flush,
        stage_busy,
        ready,
        done,
        stage_resources,
        makespan,
        binding,
    } = w;

    at.clear();
    from.clear();
    for stage_nodes in asg {
        from.push(at.len());
        at.extend(stage_nodes.iter().map(|&u| rates.index(u)));
    }
    from.push(at.len());
    // Node indices of stage `s`'s instances.
    let on = |s: usize| &at[from[s]..from[s + 1]];

    // Slowest node hosting each stage (the pipeline's pace setter) and
    // the worst-case flush.
    for s in 0..nstages {
        let (per_rec, flush) = (row_of(&rates.per_rec, s, nn), row_of(&rates.flush, s, nn));
        slowest_per_rec[s] = peak(on(s).iter().map(|&ui| per_rec[ui]));
        slowest_flush[s] = peak(on(s).iter().map(|&ui| flush[ui]));
    }

    // Per-node aggregates: CPU, disk, outbound NIC, across all stages.
    node_cpu.fill(0.0);
    node_disk.fill(0.0);
    node_nic.fill(0.0);
    for (s, st) in spec.stages.iter().enumerate() {
        let cpu = row_of(&rates.cpu, s, nn);
        let (disk_in, disk_out) = (row_of(&rates.disk_in, s, nn), row_of(&rates.disk_out, s, nn));
        for &ui in on(s) {
            node_cpu[ui] += cpu[ui];
            if st.bytes_in > 0 {
                node_disk[ui] += disk_in[ui];
            }
            if st.bytes_out > 0 {
                node_disk[ui] += disk_out[ui];
            }
        }
    }
    // Outbound NIC: each record leaving stage `s` for a remote instance
    // of `t` is charged at the sender. With routing spreading records
    // across destinations, the remote fraction for a sender on node `u`
    // is the share of destination instances not on `u`. A coded edge
    // (receiver's `coded_group = r > 1`) coalesces every r remote
    // records into one frame — 1/r of the NIC bytes — and charges the
    // sender an (r-1)-way replicated disk write for the side
    // information.
    stage_nic_on.fill(0.0);
    stage_coded_disk_on.fill(0.0);
    for e in &spec.edges {
        let recs = rates.recs[e.from];
        let dests = &asg[e.to];
        let r = spec.stages[e.to].coded_group.max(1);
        for (&u, &ui) in asg[e.from].iter().zip(on(e.from)) {
            let remote =
                dests.iter().filter(|&&d| d != u).count() as f64 / dests.len() as f64;
            let nic = recs * remote * spec.record_bytes as f64 * rates.link_npb[ui] / r as f64;
            node_nic[ui] += nic;
            stage_nic_on[e.from * nn + ui] += nic;
            if r > 1 {
                let extra = recs
                    * remote
                    * spec.record_bytes as f64
                    * (r - 1) as f64
                    * rates.disk_npb[ui];
                node_disk[ui] += extra;
                stage_coded_disk_on[e.from * nn + ui] += extra;
            }
        }
    }

    // Per-stage busy: max over nodes of the time this stage's instances
    // occupy that node (CPU overlapped with local disk for sources; a
    // coded out-edge adds its replicated writes to the disk share).
    // Attribution (cpu/disk/nic maxes) is recorded alongside.
    for s in 0..nstages {
        let (cpu, disk_io) = (row_of(&rates.cpu, s, nn), row_of(&rates.disk_io, s, nn));
        cpu_on.fill(0.0);
        disk_on.fill(0.0);
        for &ui in on(s) {
            cpu_on[ui] += cpu[ui];
            disk_on[ui] += disk_io[ui];
        }
        let coded = row_of(stage_coded_disk_on, s, nn);
        for ui in 0..nn {
            disk_on[ui] += coded[ui];
            // The replicated side-information writes share the device
            // with everything else the node's disk serves (source
            // reads, co-resident sink writes): once coding competes
            // for the disk, the stage cannot finish before the whole
            // device drains.
            if coded[ui] > 0.0 {
                disk_on[ui] = disk_on[ui].max(node_disk[ui]);
            }
        }
        stage_busy[s] = peak(cpu_on.iter().zip(&*disk_on).map(|(&c, &d)| c.max(d)));
        stage_resources[s] = StageResource {
            cpu_ns: peak(cpu_on.iter().copied()),
            disk_ns: peak(disk_on.iter().copied()),
            nic_ns: peak(row_of(stage_nic_on, s, nn).iter().copied()),
        };
    }

    // Fill/drain recurrence in topo order.
    ready.fill(0.0);
    done.fill(0.0);
    for &s in topo {
        let st = &spec.stages[s];
        let packet_bytes = rates.packet_bytes[s];
        let mut rdy = 0.0f64;
        if st.is_source {
            // First packet is one disk read away on the slowest source
            // node.
            let packet_disk = row_of(&rates.packet_disk, s, nn);
            rdy = peak(on(s).iter().map(|&ui| packet_disk[ui]));
        }
        let mut drain_floor = 0.0f64;
        for e in spec.in_edges(s) {
            let up = e.from;
            // A packet pays the link in proportion to how often routing
            // sends it off-node: the fraction of (sender, dest) instance
            // pairs living on different nodes.
            let pairs = (asg[up].len() * asg[s].len()) as f64;
            let remote = asg[up]
                .iter()
                .flat_map(|&a| asg[s].iter().map(move |&b| (a, b)))
                .filter(|(a, b)| a != b)
                .count() as f64
                / pairs;
            // A coded inbound edge ships full-width frames (the byte
            // savings are in frame *count*, charged in `node_nic`), and
            // the first frame only forms once r packets have been
            // produced upstream.
            let rcv = st.coded_group.max(1) as f64;
            // Charged at the slowest sender's residual-scaled link.
            let up_link_ns = peak(on(up).iter().map(|&ui| rates.link_npb[ui]));
            let link = remote * (packet_bytes * up_link_ns + shape.link_latency_ns);
            let step = spec.stages[up].packet_records as f64 * slowest_per_rec[up];
            let feed = if spec.stages[up].blocking {
                done[up] + link
            } else {
                ready[up] + rcv * step + link
            };
            rdy = rdy.max(feed);
            // Last upstream packet still has to pass through `s`.
            let tail = done[up]
                + link
                + st.packet_records as f64 * slowest_per_rec[s]
                + slowest_flush[s];
            drain_floor = drain_floor.max(tail);
        }
        ready[s] = rdy;
        done[s] = (rdy + stage_busy[s]).max(drain_floor);
    }

    // Critical path: sinks plus their final disk write.
    let mut cp = 0.0f64;
    let mut cp_stage = 0usize;
    for (s, &drained) in done.iter().enumerate() {
        if !spec.is_sink(s) {
            continue;
        }
        let tail = if spec.stages[s].bytes_out > 0 {
            let packet_disk = row_of(&rates.packet_disk, s, nn);
            peak(on(s).iter().map(|&ui| packet_disk[ui]))
        } else {
            0.0
        };
        let t = drained + tail;
        if t > cp {
            cp = t;
            cp_stage = s;
        }
    }

    // Node bounds: a node cannot finish before its first work arrives
    // plus everything it must serve.
    first_ready.fill(f64::INFINITY);
    for (s, &fed) in ready.iter().enumerate() {
        for &ui in on(s) {
            first_ready[ui] = first_ready[ui].min(fed);
        }
    }
    let mut best = cp;
    let mut bound_by = Binding::Pipeline(cp_stage);
    for ui in 0..nn {
        if !first_ready[ui].is_finite() {
            continue;
        }
        let base = first_ready[ui];
        for (total, resource) in [
            (node_cpu[ui], Binding::Cpu(ui)),
            (node_disk[ui], Binding::Disk(ui)),
            (node_nic[ui], Binding::Link(ui)),
        ] {
            let bound = base + total;
            if bound > best {
                best = bound;
                bound_by = resource;
            }
        }
    }
    *makespan = best;
    *binding = bound_by;
    best
}

/// Score `asg` (node of every `(stage, instance)`) for `spec` on
/// `shape`. `topo` is the spec's topological order.
pub fn estimate(
    spec: &PlanSpec,
    shape: &ClusterShape,
    asg: &[Vec<NodeId>],
    topo: &[usize],
) -> Estimate {
    estimate_residual(
        spec,
        shape,
        asg,
        topo,
        &ResidualCapacity::full(shape.total_nodes()),
    )
}

/// [`estimate`], but against the *residual* capacity of a cluster with
/// other jobs already running: every node's CPU speed, disk rate, and
/// outbound link rate is scaled by its headroom fraction in `res`
/// (planner node order). `ResidualCapacity::full` reproduces
/// [`estimate`] bit for bit — a rate times 1.0 is the rate.
///
/// One-shot wrapper over [`Planner::estimate_residual`], which keeps
/// its buffers between calls.
pub fn estimate_residual(
    spec: &PlanSpec,
    shape: &ClusterShape,
    asg: &[Vec<NodeId>],
    topo: &[usize],
    res: &ResidualCapacity,
) -> Estimate {
    Planner::new().estimate_residual(spec, shape, asg, topo, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PlanEdge, StageSpec};
    use lmas_core::cost::Work;
    use lmas_core::functor::FunctorKind;

    fn two_stage_spec(records: u64) -> PlanSpec {
        let eligible = FunctorKind::AsuEligible { max_state_bytes: 0 };
        PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("read", 1, eligible)
                    .with_source(records * 128)
                    .with_work(Work::moves(1), records),
                StageSpec::new("crunch", 1, FunctorKind::HostOnly)
                    .with_work(Work::compares(8) + Work::moves(1), records),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        }
    }

    #[test]
    fn offloading_compute_to_slow_node_costs_time() {
        let spec = two_stage_spec(100_000);
        let shape = ClusterShape::era_2002(1, 1, 8.0);
        let topo = spec.topo_order().unwrap();
        let on_host = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let on_asu = vec![vec![NodeId::Asu(0)], vec![NodeId::Asu(0)]];
        let fast = estimate(&spec, &shape, &on_host, &topo);
        let slow = estimate(&spec, &shape, &on_asu, &topo);
        assert!(
            slow.makespan_ns > 2.0 * fast.makespan_ns,
            "8× slower CPU must dominate: host {} vs asu {}",
            fast.makespan_ns,
            slow.makespan_ns
        );
        assert!(matches!(slow.bottleneck, Bottleneck::Cpu { .. }));
    }

    #[test]
    fn replication_divides_busy_time() {
        let eligible = FunctorKind::AsuEligible { max_state_bytes: 0 };
        let mk = |repl: usize| PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("src", 1, eligible)
                    .with_source(128 * 1_000_000),
                StageSpec::new("work", repl, FunctorKind::HostOnly)
                    .with_work(Work::compares(16), 1_000_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(4, 1, 8.0);
        let s1 = mk(1);
        let s4 = mk(4);
        let topo = s1.topo_order().unwrap();
        let a1 = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let a4 = vec![
            vec![NodeId::Asu(0)],
            (0..4).map(NodeId::Host).collect(),
        ];
        let e1 = estimate(&s1, &shape, &a1, &topo);
        let e4 = estimate(&s4, &shape, &a4, &topo);
        assert!(
            e4.stage_busy_ns[1] < e1.stage_busy_ns[1] / 3.0,
            "4-way replication must cut stage occupancy"
        );
        assert!(e4.makespan_ns < e1.makespan_ns);
    }

    #[test]
    fn blocking_stage_serializes_downstream() {
        let eligible = FunctorKind::AsuEligible { max_state_bytes: 0 };
        let mk = |blocking: bool| PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("src", 1, eligible)
                    .with_source(128 * 200_000)
                    .with_work(Work::moves(1), 200_000)
                    .with_flush(Work::ZERO, blocking),
                StageSpec::new("down", 1, FunctorKind::HostOnly)
                    .with_work(Work::moves(1), 200_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(1, 1, 8.0);
        let topo = mk(false).topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let streamed = estimate(&mk(false), &shape, &asg, &topo);
        let barrier = estimate(&mk(true), &shape, &asg, &topo);
        assert!(
            barrier.makespan_ns > streamed.makespan_ns,
            "a barrier stage must lengthen the pipeline"
        );
    }

    #[test]
    fn full_residual_estimate_is_bit_identical() {
        let spec = two_stage_spec(77_000);
        let shape = ClusterShape::era_2002(2, 3, 8.0);
        let topo = spec.topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(1)], vec![NodeId::Host(0)]];
        let raw = estimate(&spec, &shape, &asg, &topo);
        let res = ResidualCapacity::full(shape.total_nodes());
        let full = estimate_residual(&spec, &shape, &asg, &topo, &res);
        assert_eq!(raw.makespan_ns.to_bits(), full.makespan_ns.to_bits());
        assert_eq!(raw.bottleneck, full.bottleneck);
        for (a, b) in raw.node_cpu_ns.iter().zip(&full.node_cpu_ns) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        for (a, b) in raw.node_nic_ns.iter().zip(&full.node_nic_ns) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn occupied_node_inflates_estimate() {
        let spec = two_stage_spec(100_000);
        let shape = ClusterShape::era_2002(1, 1, 8.0);
        let topo = spec.topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let empty = estimate(&spec, &shape, &asg, &topo);
        let mut res = ResidualCapacity::full(shape.total_nodes());
        res.occupy(0, 0.75, 0.0, 0.0); // host 0 CPU three-quarters busy
        let shared = estimate_residual(&spec, &shape, &asg, &topo, &res);
        assert!(
            shared.makespan_ns > empty.makespan_ns,
            "losing 3/4 of the host CPU must slow the crunch: {} vs {}",
            shared.makespan_ns,
            empty.makespan_ns
        );
    }

    #[test]
    fn estimate_is_deterministic() {
        let spec = two_stage_spec(12345);
        let shape = ClusterShape::era_2002(2, 3, 8.0);
        let topo = spec.topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(2)], vec![NodeId::Host(1)]];
        let a = estimate(&spec, &shape, &asg, &topo);
        let b = estimate(&spec, &shape, &asg, &topo);
        assert_eq!(a.makespan_ns.to_bits(), b.makespan_ns.to_bits());
        assert_eq!(a.bottleneck, b.bottleneck);
    }
}
