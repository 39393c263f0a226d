//! The estimator and search as they stood before the table-driven
//! [`Planner`](crate::search::Planner): one `Vec` per intermediate, one
//! `cost.charge` per use, a full [`Estimate`] per probe. Kept verbatim
//! as the reference the differential tests below hold the planner to,
//! bit for bit.

use crate::estimate::{Bottleneck, Estimate, StageResource};
use crate::model::{ClusterShape, PlanError, PlanSpec};
use crate::report::PlanReport;
use crate::residual::ResidualCapacity;
use crate::search::PlanOutcome;
use lmas_core::placement::{NodeId, Placement, StageId};

const MAX_ROUNDS: usize = 8;
const MAX_MOVES: usize = 512;
const EPS_NS: f64 = 1.0;

/// Per-instance record share under even dealing.
fn recs_per_instance(records: u64, replication: usize) -> f64 {
    records as f64 / replication as f64
}

pub fn estimate_residual(
    spec: &PlanSpec,
    shape: &ClusterShape,
    asg: &[Vec<NodeId>],
    topo: &[usize],
    res: &ResidualCapacity,
) -> Estimate {
    debug_assert_eq!(res.len(), shape.total_nodes());
    let nstages = spec.stages.len();
    let nodes = shape.nodes();
    let node_index = |node: NodeId| -> usize {
        match node {
            NodeId::Host(i) => i,
            NodeId::Asu(i) => shape.hosts + i,
        }
    };
    // Work → ns on a given node, per record and per flush.
    let per_rec_ns = |s: usize, node: NodeId| -> f64 {
        shape
            .cost
            .charge(
                spec.stages[s].per_record,
                shape.node_speed(node) * res.cpu[node_index(node)],
            )
            .as_nanos() as f64
    };
    let flush_ns = |s: usize, node: NodeId| -> f64 {
        shape
            .cost
            .charge(
                spec.stages[s].flush_per_instance,
                shape.node_speed(node) * res.cpu[node_index(node)],
            )
            .as_nanos() as f64
    };
    let disk_ns_per_byte = |node: NodeId| -> f64 {
        1e9 / (shape.disk_rate(node) * res.disk[node_index(node)])
    };
    let link_ns_per_byte =
        |node: NodeId| -> f64 { 1e9 / (shape.link_rate * res.nic[node_index(node)]) };

    // Slowest node hosting each stage (the pipeline's pace setter) and
    // the worst-case flush.
    let slowest_per_rec: Vec<f64> = (0..nstages)
        .map(|s| {
            asg[s]
                .iter()
                .map(|&u| per_rec_ns(s, u))
                .fold(0.0, f64::max)
        })
        .collect();
    let slowest_flush: Vec<f64> = (0..nstages)
        .map(|s| {
            asg[s].iter().map(|&u| flush_ns(s, u)).fold(0.0, f64::max)
        })
        .collect();

    // Per-node aggregates: CPU, disk, outbound NIC, across all stages.
    let mut node_cpu = vec![0.0f64; nodes.len()];
    let mut node_disk = vec![0.0f64; nodes.len()];
    let mut node_nic = vec![0.0f64; nodes.len()];
    for (s, stage_nodes) in asg.iter().enumerate() {
        let st = &spec.stages[s];
        let recs = recs_per_instance(st.records, st.replication);
        for &u in stage_nodes {
            let ui = node_index(u);
            node_cpu[ui] += recs * per_rec_ns(s, u) + flush_ns(s, u);
            if st.bytes_in > 0 {
                node_disk[ui] += st.bytes_in as f64
                    / st.replication as f64
                    * disk_ns_per_byte(u);
            }
            if st.bytes_out > 0 {
                node_disk[ui] += st.bytes_out as f64
                    / st.replication as f64
                    * disk_ns_per_byte(u);
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
    let mut stage_nic_on = vec![vec![0.0f64; nodes.len()]; nstages];
    let mut stage_coded_disk_on = vec![vec![0.0f64; nodes.len()]; nstages];
    for e in &spec.edges {
        let st = &spec.stages[e.from];
        let recs = recs_per_instance(st.records, st.replication);
        let dests = &asg[e.to];
        let r = spec.stages[e.to].coded_group.max(1);
        for &u in &asg[e.from] {
            let ui = node_index(u);
            let remote =
                dests.iter().filter(|&&d| d != u).count() as f64
                    / dests.len() as f64;
            let nic = recs * remote * spec.record_bytes as f64
                * link_ns_per_byte(u)
                / r as f64;
            node_nic[ui] += nic;
            stage_nic_on[e.from][ui] += nic;
            if r > 1 {
                let extra = recs
                    * remote
                    * spec.record_bytes as f64
                    * (r - 1) as f64
                    * disk_ns_per_byte(u);
                node_disk[ui] += extra;
                stage_coded_disk_on[e.from][ui] += extra;
            }
        }
    }

    // Per-stage busy: max over nodes of the time this stage's instances
    // occupy that node (CPU overlapped with local disk for sources; a
    // coded out-edge adds its replicated writes to the disk share).
    // Attribution (cpu/disk/nic maxes) is recorded alongside.
    let mut stage_busy = vec![0.0f64; nstages];
    let mut stage_resources = Vec::with_capacity(nstages);
    for s in 0..nstages {
        let st = &spec.stages[s];
        let recs = recs_per_instance(st.records, st.replication);
        let mut cpu_on = vec![0.0f64; nodes.len()];
        let mut disk_on = vec![0.0f64; nodes.len()];
        for &u in &asg[s] {
            let ui = node_index(u);
            cpu_on[ui] += recs * per_rec_ns(s, u) + flush_ns(s, u);
            disk_on[ui] += (st.bytes_in + st.bytes_out) as f64
                / st.replication as f64
                * disk_ns_per_byte(u);
        }
        for ui in 0..nodes.len() {
            disk_on[ui] += stage_coded_disk_on[s][ui];
            // The replicated side-information writes share the device
            // with everything else the node's disk serves (source
            // reads, co-resident sink writes): once coding competes
            // for the disk, the stage cannot finish before the whole
            // device drains.
            if stage_coded_disk_on[s][ui] > 0.0 {
                disk_on[ui] = disk_on[ui].max(node_disk[ui]);
            }
        }
        stage_busy[s] = cpu_on
            .iter()
            .zip(&disk_on)
            .map(|(&c, &d)| c.max(d))
            .fold(0.0, f64::max);
        stage_resources.push(StageResource {
            cpu_ns: cpu_on.iter().copied().fold(0.0, f64::max),
            disk_ns: disk_on.iter().copied().fold(0.0, f64::max),
            nic_ns: stage_nic_on[s].iter().copied().fold(0.0, f64::max),
        });
    }

    // Fill/drain recurrence in topo order.
    let mut ready = vec![0.0f64; nstages];
    let mut done = vec![0.0f64; nstages];
    for &s in topo {
        let st = &spec.stages[s];
        let packet_bytes =
            st.packet_records as f64 * spec.record_bytes as f64;
        let mut rdy = 0.0f64;
        if st.is_source {
            // First packet is one disk read away on the slowest source
            // node.
            rdy = asg[s]
                .iter()
                .map(|&u| packet_bytes * disk_ns_per_byte(u))
                .fold(0.0, f64::max);
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
            let up_link_ns = asg[up]
                .iter()
                .map(|&u| link_ns_per_byte(u))
                .fold(0.0, f64::max);
            let link = remote
                * (packet_bytes * up_link_ns + shape.link_latency_ns);
            let step =
                spec.stages[up].packet_records as f64 * slowest_per_rec[up];
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
    for s in 0..nstages {
        if !spec.is_sink(s) {
            continue;
        }
        let st = &spec.stages[s];
        let tail = if st.bytes_out > 0 {
            let packet_bytes =
                st.packet_records as f64 * spec.record_bytes as f64;
            asg[s]
                .iter()
                .map(|&u| packet_bytes * disk_ns_per_byte(u))
                .fold(0.0, f64::max)
        } else {
            0.0
        };
        let t = done[s] + tail;
        if t > cp {
            cp = t;
            cp_stage = s;
        }
    }

    // Node bounds: a node cannot finish before its first work arrives
    // plus everything it must serve.
    let mut first_ready = vec![f64::INFINITY; nodes.len()];
    for s in 0..nstages {
        for &u in &asg[s] {
            let ui = node_index(u);
            first_ready[ui] = first_ready[ui].min(ready[s]);
        }
    }
    let mut best = cp;
    let mut bottleneck = Bottleneck::Pipeline {
        stage: spec.stages[cp_stage].name.clone(),
    };
    for (ui, &node) in nodes.iter().enumerate() {
        if !first_ready[ui].is_finite() {
            continue;
        }
        let base = first_ready[ui];
        for (total, mk) in [
            (node_cpu[ui], 0),
            (node_disk[ui], 1),
            (node_nic[ui], 2),
        ] {
            let bound = base + total;
            if bound > best {
                best = bound;
                bottleneck = match mk {
                    0 => Bottleneck::Cpu { node },
                    1 => Bottleneck::Disk { node },
                    _ => Bottleneck::Link { node },
                };
            }
        }
    }

    Estimate {
        makespan_ns: best,
        bottleneck,
        stage_busy_ns: stage_busy,
        stage_done_ns: done,
        node_cpu_ns: nodes
            .iter()
            .copied()
            .zip(node_cpu.iter().copied())
            .collect(),
        node_disk_ns: nodes
            .iter()
            .copied()
            .zip(node_disk.iter().copied())
            .collect(),
        node_nic_ns: nodes
            .iter()
            .copied()
            .zip(node_nic.iter().copied())
            .collect(),
        stage_resources,
    }
}


/// Secondary objective: sum of squared per-node CPU demand. The
/// makespan is a *max* over node bounds, so unloading one of several
/// equally saturated nodes leaves it flat — a plateau first-improvement
/// search cannot cross (moving each of four overloaded instances helps
/// only once all four have moved). Accepting makespan-neutral moves
/// that strictly reduce this imbalance walks the search off such
/// plateaus deterministically.
fn imbalance(e: &Estimate) -> f64 {
    e.node_cpu_ns.iter().map(|(_, c)| c * c).sum()
}

/// Feasible nodes for a stage, in planner order (hosts, then ASUs).
fn candidates(
    spec: &PlanSpec,
    shape: &ClusterShape,
    s: usize,
) -> Vec<NodeId> {
    let st = &spec.stages[s];
    if st.kind.asu_placeable(shape.asu_mem) {
        shape.nodes()
    } else {
        (0..shape.hosts).map(NodeId::Host).collect()
    }
}

pub fn plan_residual(
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
    let estimate = |spec: &PlanSpec,
                    shape: &ClusterShape,
                    asg: &[Vec<NodeId>],
                    topo: &[usize]|
     -> Estimate { estimate_residual(spec, shape, asg, topo, res) };
    let topo = spec.topo_order()?;
    let nstages = spec.stages.len();

    // Feasibility and pin validation up front.
    let cands: Vec<Vec<NodeId>> =
        (0..nstages).map(|s| candidates(spec, shape, s)).collect();
    for (s, st) in spec.stages.iter().enumerate() {
        if cands[s].is_empty() {
            return Err(PlanError::NoFeasibleNode { stage: s });
        }
        for pin in st.pinned.iter().flatten() {
            let in_cluster = match *pin {
                NodeId::Host(i) => i < shape.hosts,
                NodeId::Asu(i) => i < shape.asus,
            };
            if !in_cluster || (pin.is_asu() && !st.kind.asu_placeable(shape.asu_mem))
            {
                return Err(PlanError::BadPin { stage: s });
            }
        }
    }

    // Greedy seed: stages in topo order, instances dealt round-robin
    // across the feasible nodes. Pins win outright.
    let mut asg: Vec<Vec<NodeId>> = vec![Vec::new(); nstages];
    for &s in &topo {
        let st = &spec.stages[s];
        asg[s] = (0..st.replication)
            .map(|i| {
                st.pinned
                    .get(i)
                    .copied()
                    .flatten()
                    .unwrap_or(cands[s][i % cands[s].len()])
            })
            .collect();
    }

    // First-improvement local search: migrate, then swap, to fixpoint.
    // A move is taken when it beats the incumbent makespan, or holds it
    // while strictly evening out per-node CPU demand (plateau escape).
    let mut best = estimate(spec, shape, &asg, &topo);
    let mut best_imb = imbalance(&best);
    let mut moves_applied = 0usize;
    let pinned = |s: usize, i: usize| -> bool {
        spec.stages[s].pinned.get(i).copied().flatten().is_some()
    };
    let accepts = |e: &Estimate, best: &Estimate, best_imb: f64| -> bool {
        e.makespan_ns < best.makespan_ns - EPS_NS
            || (e.makespan_ns < best.makespan_ns + EPS_NS
                && imbalance(e) < best_imb - 1.0)
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
                for &cand in &cands[s] {
                    if cand == cur {
                        continue;
                    }
                    asg[s][i] = cand;
                    let e = estimate(spec, shape, &asg, &topo);
                    if accepts(&e, &best, best_imb) {
                        best_imb = imbalance(&e);
                        best = e;
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
                        if a == b
                            || !cands[s].contains(&b)
                            || !cands[t].contains(&a)
                        {
                            continue;
                        }
                        asg[s][i] = b;
                        asg[t][j] = a;
                        let e = estimate(spec, shape, &asg, &topo);
                        if accepts(&e, &best, best_imb) {
                            best_imb = imbalance(&e);
                            best = e;
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
            let hosts: Vec<NodeId> = cands[s]
                .iter()
                .copied()
                .filter(|n| !n.is_asu())
                .collect();
            if hosts.is_empty() {
                continue;
            }
            let saved = asg[s].clone();
            let mut dealt = 0usize;
            for (i, slot) in asg[s].iter_mut().enumerate() {
                if !pinned(s, i) {
                    *slot = hosts[dealt % hosts.len()];
                    dealt += 1;
                }
            }
            if asg[s] == saved {
                continue;
            }
            let e = estimate(spec, shape, &asg, &topo);
            if accepts(&e, &best, best_imb) {
                best_imb = imbalance(&e);
                best = e;
                improved = true;
                moves_applied += 1;
                if moves_applied >= MAX_MOVES {
                    break 'search;
                }
            } else {
                asg[s] = saved;
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
        let unpinned: Vec<usize> = (0..spec.stages[s].replication)
            .filter(|&i| !pinned(s, i))
            .collect();
        let mut nodes: Vec<NodeId> =
            unpinned.iter().map(|&i| stage_nodes[i]).collect();
        nodes.sort_by_key(|n| match *n {
            NodeId::Host(i) => (0, i),
            NodeId::Asu(i) => (1, i),
        });
        for (&i, &n) in unpinned.iter().zip(&nodes) {
            stage_nodes[i] = n;
        }
    }
    best = estimate(spec, shape, &asg, &topo);

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

    let report = PlanReport::from_plan(spec, shape, &asg, &best, moves_applied);
    Ok(PlanOutcome {
        placement,
        report,
        assignment: asg,
        estimate: best,
    })
}


mod tests {
    use super::*;
    use crate::model::{PlanEdge, StageSpec};
    use crate::search::Planner;
    use lmas_core::cost::Work;
    use lmas_core::functor::FunctorKind;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// A random planning problem: 1–4 stages on a forward DAG, a mix of
    /// placement contracts, pins, coded groups, blocking flushes, and a
    /// residual view with every fraction in [0.05, 1].
    fn problem(rng: &mut TestRng) -> (PlanSpec, ClusterShape, ResidualCapacity) {
        let hosts = 1 + rng.below(3) as usize;
        let asus = 1 + rng.below(4) as usize;
        let mut shape = ClusterShape::era_2002(hosts, asus, 2.0 + rng.below(10) as f64);
        if rng.below(3) == 0 {
            shape.link_rate = 10.0e6 * (1 + rng.below(20)) as f64;
        }
        if rng.below(3) == 0 {
            shape = shape.with_asu_disk_rate(50.0e6 * (1 + rng.below(6)) as f64);
        }
        let pick_node = |rng: &mut TestRng, host_only: bool| {
            if host_only || rng.below(2) == 0 {
                NodeId::Host(rng.below(hosts as u64) as usize)
            } else {
                NodeId::Asu(rng.below(asus as u64) as usize)
            }
        };
        let nstages = 1 + rng.below(4) as usize;
        let records = 1_000 + rng.below(200_000);
        let stages: Vec<StageSpec> = (0..nstages)
            .map(|s| {
                let replication = 1 + rng.below(5) as usize;
                let kind = match rng.below(4) {
                    0 => FunctorKind::HostOnly,
                    // Too much state for an ASU: host-only by contract.
                    1 => FunctorKind::VerifiedKernel { max_state_bytes: 64 << 20 },
                    _ => FunctorKind::AsuEligible { max_state_bytes: rng.below(4096) as usize },
                };
                let host_only = !kind.asu_placeable(shape.asu_mem);
                let mut st = StageSpec::new(&format!("s{s}"), replication, kind)
                    .with_work(
                        Work::compares(rng.below(40)) + Work::moves(rng.below(3)),
                        records,
                    )
                    .with_packet_records(1 + rng.below(2048))
                    .with_flush(
                        Work::compares(rng.below(3) * rng.below(50_000)),
                        rng.below(3) == 0,
                    )
                    .with_coded(1 + rng.below(3) as usize);
                if s == 0 || rng.below(4) == 0 {
                    st = st.with_source(records * 100);
                }
                if rng.below(3) == 0 {
                    st = st.with_sink_bytes(records * 100);
                }
                match rng.below(3) {
                    0 => {}
                    1 => {
                        let pins = (0..replication)
                            .map(|_| (rng.below(2) == 0).then(|| pick_node(rng, host_only)))
                            .collect();
                        st = st.with_pins(pins);
                    }
                    _ if !host_only => st = st.pinned_per_asu(asus),
                    _ => {}
                }
                if rng.below(24) == 0 {
                    // Off-cluster pin, or pins that miss an instance.
                    let bad = vec![Some(NodeId::Asu(asus)); replication - rng.below(2) as usize];
                    st = st.with_pins(bad);
                }
                st
            })
            .collect();
        // A chain, plus the odd extra forward edge (fan-in).
        let mut edges: Vec<PlanEdge> = (1..nstages)
            .filter(|_| rng.below(8) != 0)
            .map(|s| PlanEdge { from: s - 1, to: s })
            .collect();
        if nstages >= 3 && rng.below(3) == 0 {
            edges.push(PlanEdge { from: 0, to: nstages - 1 });
        }
        let record_bytes = [8, 24, 100, 128, 136][rng.below(5) as usize];
        let spec = PlanSpec { record_bytes, stages, edges };
        let n = shape.total_nodes();
        let frac = |rng: &mut TestRng| match rng.below(3) {
            0 => 1.0,
            _ => 0.05 + 0.95 * rng.unit_f64(),
        };
        let res = ResidualCapacity {
            cpu: (0..n).map(|_| frac(rng)).collect(),
            disk: (0..n).map(|_| frac(rng)).collect(),
            nic: (0..n).map(|_| frac(rng)).collect(),
        };
        (spec, shape, res)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn per_node_bits(v: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        v.iter().map(|&(n, x)| (n, x.to_bits())).collect()
    }

    fn assert_same_estimate(got: &Estimate, want: &Estimate) {
        assert_eq!(got.makespan_ns.to_bits(), want.makespan_ns.to_bits());
        assert_eq!(got.bottleneck, want.bottleneck);
        assert_eq!(bits(&got.stage_busy_ns), bits(&want.stage_busy_ns));
        assert_eq!(bits(&got.stage_done_ns), bits(&want.stage_done_ns));
        assert_eq!(per_node_bits(&got.node_cpu_ns), per_node_bits(&want.node_cpu_ns));
        assert_eq!(per_node_bits(&got.node_disk_ns), per_node_bits(&want.node_disk_ns));
        assert_eq!(per_node_bits(&got.node_nic_ns), per_node_bits(&want.node_nic_ns));
        assert_eq!(got.stage_resources.len(), want.stage_resources.len());
        for (g, w) in got.stage_resources.iter().zip(&want.stage_resources) {
            assert_eq!(
                [g.cpu_ns.to_bits(), g.disk_ns.to_bits(), g.nic_ns.to_bits()],
                [w.cpu_ns.to_bits(), w.disk_ns.to_bits(), w.nic_ns.to_bits()]
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table-driven estimator is the reference estimator, field
        /// by field and bit by bit, on arbitrary (even infeasible)
        /// assignments — including when one planner's buffers are
        /// reused across problems of different shapes.
        #[test]
        fn table_estimate_equals_reference(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut planner = Planner::new();
            for _ in 0..3 {
                let (spec, shape, res) = problem(&mut rng);
                let Ok(topo) = spec.topo_order() else { continue };
                let nodes = shape.nodes();
                let asg: Vec<Vec<NodeId>> = spec
                    .stages
                    .iter()
                    .map(|st| {
                        (0..st.replication)
                            .map(|_| nodes[rng.below(nodes.len() as u64) as usize])
                            .collect()
                    })
                    .collect();
                let want = estimate_residual(&spec, &shape, &asg, &topo, &res);
                assert_same_estimate(
                    &planner.estimate_residual(&spec, &shape, &asg, &topo, &res),
                    &want,
                );
                assert_same_estimate(
                    &crate::estimate::estimate_residual(&spec, &shape, &asg, &topo, &res),
                    &want,
                );
            }
        }

        /// The search over the tables walks the reference search's
        /// path: same assignment, same move count, same report, same
        /// estimate — or the same typed error.
        #[test]
        fn table_plan_equals_reference(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut planner = Planner::new();
            for _ in 0..3 {
                let (spec, shape, res) = problem(&mut rng);
                let want = plan_residual(&spec, &shape, &res);
                for got in [
                    planner.plan_residual(&spec, &shape, &res),
                    crate::search::plan_residual(&spec, &shape, &res),
                ] {
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => {
                            prop_assert_eq!(&g.assignment, &w.assignment);
                            prop_assert_eq!(g.report.moves_applied, w.report.moves_applied);
                            prop_assert_eq!(&g.report, &w.report);
                            assert_same_estimate(&g.estimate, &w.estimate);
                        }
                        (Err(g), Err(w)) => prop_assert_eq!(g, w),
                        _ => prop_assert!(false, "planner {:?} vs reference {:?}", got.is_ok(), want.is_ok()),
                    }
                }
            }
        }
    }
}
