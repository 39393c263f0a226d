//! Run-wide metrics collected while a job executes.
//!
//! Section 5: "The emulator is instrumented to report application
//! progress, overall runtime, and resource utilization for each host and
//! ASU in the target (emulated) system as the application executes."
//! Per-node utilization lives in the node resources; this module holds
//! the job-level counters: per-stage declared work, sink outputs,
//! progress, and contract violations.

use crate::fault::FaultStats;
use crate::repair::{RepairSample, RepairStats};
use lmas_core::{Packet, Record, Work};
use lmas_sim::{SimTime, Trace};
use std::collections::BTreeMap;

/// Per-stage backlog gauge with time-weighted statistics.
///
/// The routers read the instantaneous per-instance depths to make
/// load-aware picks; every mutation is stamped with the virtual instant
/// it happens at, so the gauge also integrates depth over time. That
/// yields the *time-weighted mean* queue depth — the signal the runtime
/// balancer samples and the run report surfaces next to utilization —
/// using pure integer arithmetic (a `u128` record·nanosecond integral)
/// so reports are bit-reproducible.
#[derive(Debug, Clone)]
pub struct StageGauge {
    depth: Vec<u64>,
    last: Vec<SimTime>,
    integral: Vec<u128>,
    peak: Vec<u64>,
}

impl StageGauge {
    /// A gauge over `n` instances, all empty at time zero.
    pub fn new(n: usize) -> StageGauge {
        StageGauge {
            depth: vec![0; n],
            last: vec![SimTime::ZERO; n],
            integral: vec![0; n],
            peak: vec![0; n],
        }
    }

    /// Accumulate depth·time up to `now` for instance `i`.
    fn advance(&mut self, i: usize, now: SimTime) {
        let dt = now.saturating_since(self.last[i]).as_nanos();
        self.integral[i] += self.depth[i] as u128 * dt as u128;
        self.last[i] = self.last[i].max(now);
    }

    /// Records were routed to instance `i` at `now`.
    pub fn add(&mut self, i: usize, records: u64, now: SimTime) {
        self.advance(i, now);
        self.depth[i] += records;
        self.peak[i] = self.peak[i].max(self.depth[i]);
    }

    /// Instance `i` started (or lost) records at `now`.
    pub fn sub(&mut self, i: usize, records: u64, now: SimTime) {
        self.advance(i, now);
        self.depth[i] = self.depth[i].saturating_sub(records);
    }

    /// Instance `i`'s queue vanished at `now` (node crash).
    pub fn clear(&mut self, i: usize, now: SimTime) {
        self.advance(i, now);
        self.depth[i] = 0;
    }

    /// Instantaneous per-instance depths (what the routers consult).
    pub fn depths(&self) -> &[u64] {
        &self.depth
    }

    /// Per-instance statistics over the horizon `[0, end]`.
    pub fn stats(&self, end: SimTime) -> Vec<QueueStat> {
        let horizon = end.as_nanos();
        (0..self.depth.len())
            .map(|i| {
                let tail = end.saturating_since(self.last[i]).as_nanos();
                let area = self.integral[i] + self.depth[i] as u128 * tail as u128;
                QueueStat {
                    mean_depth: if horizon > 0 {
                        area as f64 / horizon as f64
                    } else {
                        0.0
                    },
                    peak_depth: self.peak[i],
                    final_depth: self.depth[i],
                }
            })
            .collect()
    }
}

/// What a recorded gauge mutation does on replay.
#[derive(Debug, Clone, Copy)]
enum GaugeOpKind {
    /// Add `records` to the instance's depth.
    Add,
    /// Subtract `records` from the instance's depth.
    Sub,
    /// Zero the instance's depth (node crash dropping its queue).
    Clear,
}

/// One recorded gauge mutation (see [`GaugeJournal`]).
#[derive(Debug, Clone, Copy)]
struct GaugeOp {
    at: SimTime,
    /// Dispatch ordering key `(sched, packed)` of the event that caused
    /// the mutation ([`lmas_sim::Ctx::par_key`]).
    key: (u64, u64),
    inst: usize,
    kind: GaugeOpKind,
    records: u64,
}

/// Deferred [`StageGauge`]: partitioned runs record gauge mutations with
/// their dispatch keys instead of mutating a shared gauge, then
/// [`GaugeJournal::replay`] merges the per-partition journals in exact
/// sequential dispatch order. `depths()` returns all-zero backlogs — the
/// partitioned runtime only engages for routing policies that never read
/// the backlog, so the zeros are placeholders for slice arithmetic, not
/// a signal.
#[derive(Debug, Clone)]
pub struct GaugeJournal {
    zeros: Vec<u64>,
    ops: Vec<GaugeOp>,
}

impl GaugeJournal {
    /// A journal for a stage of `n` instances.
    pub fn new(n: usize) -> GaugeJournal {
        GaugeJournal {
            zeros: vec![0; n],
            ops: Vec::new(),
        }
    }

    fn push(&mut self, kind: GaugeOpKind, inst: usize, records: u64, at: SimTime, key: (u64, u64)) {
        self.ops.push(GaugeOp {
            at,
            key,
            inst,
            kind,
            records,
        });
    }

    /// Records were routed to instance `i` at `now`.
    pub fn add(&mut self, i: usize, records: u64, now: SimTime, key: (u64, u64)) {
        self.push(GaugeOpKind::Add, i, records, now, key);
    }

    /// Instance `i` started records at `now`.
    pub fn sub(&mut self, i: usize, records: u64, now: SimTime, key: (u64, u64)) {
        self.push(GaugeOpKind::Sub, i, records, now, key);
    }

    /// Instance `i`'s queue vanished at `now` (node crash).
    pub fn clear(&mut self, i: usize, now: SimTime, key: (u64, u64)) {
        self.push(GaugeOpKind::Clear, i, 0, now, key);
    }

    /// Placeholder depths (all zero; see the type docs).
    pub fn depths(&self) -> &[u64] {
        &self.zeros
    }

    /// Merge per-partition journals into the [`StageGauge`] an equivalent
    /// sequential run would have produced: all mutations are replayed in
    /// `(time, dispatch key)` order — the partitioned engine's total
    /// dispatch order — with a stable sort, so mutations within one
    /// dispatch keep their program order and the time-weighted integral,
    /// peak, and final depths come out bit-identical.
    pub fn replay(parts: Vec<GaugeJournal>) -> StageGauge {
        let n = parts.first().map_or(0, |j| j.zeros.len());
        debug_assert!(parts.iter().all(|j| j.zeros.len() == n));
        let mut ops: Vec<GaugeOp> = parts.into_iter().flat_map(|j| j.ops).collect();
        ops.sort_by_key(|o| (o.at, o.key));
        let mut g = StageGauge::new(n);
        for o in ops {
            match o.kind {
                GaugeOpKind::Add => g.add(o.inst, o.records, o.at),
                GaugeOpKind::Sub => g.sub(o.inst, o.records, o.at),
                GaugeOpKind::Clear => g.clear(o.inst, o.at),
            }
        }
        g
    }
}

/// Time-weighted queue statistics for one stage instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStat {
    /// Mean queued records over the run (depth·time / makespan).
    pub mean_depth: f64,
    /// Peak queued records.
    pub peak_depth: u64,
    /// Records still queued when the run ended.
    pub final_depth: u64,
}

/// Queue statistics for every instance of one stage.
#[derive(Debug, Clone)]
pub struct StageQueueStats {
    /// Stage name (from the flow graph).
    pub stage: String,
    /// One entry per instance, in instance order.
    pub instances: Vec<QueueStat>,
}

impl StageQueueStats {
    /// Largest peak depth across this stage's instances.
    pub fn max_peak(&self) -> u64 {
        self.instances
            .iter()
            .map(|q| q.peak_depth)
            .max()
            .unwrap_or(0)
    }
}

/// Resource attribution of one stage, summed over its instances.
///
/// The FCFS node resources are shared, so attribution records the
/// *grant windows and byte volumes charged on a stage's behalf*: CPU
/// busy/wait time from its processing and flush grants, the bytes its
/// sources pulled off disk (with the read latency they waited), the
/// bytes its sinks and coded side-information wrote, and the payload
/// bytes it put on the wire (zero-byte EOS marks excluded). Purely
/// observational — accumulating it never moves virtual time — and
/// additive across partitions, so sequential and partitioned runs
/// report identical totals. The multi-tenant scheduler rolls these up
/// per job (stages of a merged graph are contiguous per job).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageUsage {
    /// CPU service time granted (ns).
    pub cpu_busy_ns: u64,
    /// CPU queueing time: grant start minus request instant (ns).
    pub cpu_wait_ns: u64,
    /// Bytes streamed from disk by this stage's source instances.
    pub disk_read_bytes: u64,
    /// Disk read latency waited by this stage's sources (ns).
    pub disk_wait_ns: u64,
    /// Bytes written to disk (sink captures plus coded side-information).
    pub disk_write_bytes: u64,
    /// Payload bytes put on the wire by this stage's senders.
    pub nic_bytes: u64,
    /// NIC serialization time of those payloads (ns).
    pub nic_busy_ns: u64,
}

impl StageUsage {
    /// Element-wise accumulate (partition merge / per-job roll-up).
    pub fn absorb(&mut self, other: &StageUsage) {
        self.cpu_busy_ns += other.cpu_busy_ns;
        self.cpu_wait_ns += other.cpu_wait_ns;
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_wait_ns += other.disk_wait_ns;
        self.disk_write_bytes += other.disk_write_bytes;
        self.nic_bytes += other.nic_bytes;
        self.nic_busy_ns += other.nic_busy_ns;
    }
}

/// Maximum memory-violation notes retained (they repeat).
const MAX_VIOLATION_NOTES: usize = 16;

/// Sink captures keyed by `(stage, instance)`; each entry is a
/// `(port, packet)` pair in emission order.
pub type SinkOutputs<R> = BTreeMap<(usize, usize), Vec<(usize, Packet<R>)>>;

/// Mutable metrics shared by all instance actors of a job.
///
/// `Clone` exists for graceful degradation: if an actor outlives the
/// simulation holding a reference, the runtime clones the contents out
/// instead of panicking on `Rc::try_unwrap`.
#[derive(Debug, Clone)]
pub struct Metrics<R: Record> {
    /// Declared [`Work`] charged per stage (indexed by stage id).
    pub stage_work: Vec<Work>,
    /// Records entering each stage.
    pub stage_records_in: Vec<u64>,
    /// Resource attribution per stage (indexed by stage id).
    pub stage_usage: Vec<StageUsage>,
    /// Outputs of sink stages (stages with no outgoing edge), keyed by
    /// `(stage, instance)`; each entry is `(port, packet)` in emission
    /// order.
    pub sink_outputs: SinkOutputs<R>,
    /// Total records processed across all stages (progress).
    pub records_processed: u64,
    /// Functor-state memory contract violations observed (bounded list).
    pub mem_violations: Vec<String>,
    /// Event trace of the run (disabled unless the cluster config asks
    /// for one; recording through [`Trace::record_with`] is free when
    /// disabled).
    pub trace: Trace,
    /// Fault-layer activity counters (all zero on a fault-free run).
    pub fault: FaultStats,
    /// Last instant any *application* progress happened (processing,
    /// source reads, sink writes). Fault-injected runs use this for the
    /// makespan so that late plan events (e.g. a recovery scheduled
    /// after the job drained) don't inflate it.
    pub last_activity: SimTime,
    /// Times the runtime balancer re-weighted a replica router (zero
    /// when the balancer is off or never left its deadband).
    pub reweights: u64,
    /// Repair-engine activity counters (quiet unless the fault spec
    /// carries a [`RepairSpec`](crate::repair::RepairSpec)). Only the
    /// coordinator's partition writes these; merge absorbs.
    pub repair: RepairStats,
    /// Replica-distribution trajectory samples (coordinator partition
    /// only; ascending in time).
    pub repair_samples: Vec<RepairSample>,
    /// Final replica histogram, `hist[k]` = blocks with `k` available
    /// copies (empty when repair is off).
    pub replica_hist: Vec<u64>,
    /// Bytes of repair traffic *sourced* per ASU ordinal (the pacing
    /// cap audit; summed across partitions).
    pub repair_src_bytes: Vec<u64>,
    violations_total: u64,
    /// Dispatch ordering key per retained violation note (parallel runs
    /// only; `merge` uses it to keep notes in sequential order).
    viol_keys: Vec<(SimTime, (u64, u64))>,
}

impl<R: Record> Metrics<R> {
    /// Metrics for a job of `stages` stages.
    pub fn new(stages: usize) -> Metrics<R> {
        Metrics {
            stage_work: vec![Work::ZERO; stages],
            stage_records_in: vec![0; stages],
            stage_usage: vec![StageUsage::default(); stages],
            sink_outputs: BTreeMap::new(),
            records_processed: 0,
            mem_violations: Vec::new(),
            trace: Trace::disabled(),
            fault: FaultStats::default(),
            last_activity: SimTime::ZERO,
            reweights: 0,
            repair: RepairStats::default(),
            repair_samples: Vec::new(),
            replica_hist: Vec::new(),
            repair_src_bytes: Vec::new(),
            violations_total: 0,
            viol_keys: Vec::new(),
        }
    }

    /// Note application progress at `now` (monotone max).
    pub fn note_activity(&mut self, now: SimTime) {
        self.last_activity = self.last_activity.max(now);
    }

    /// Note a memory violation (bounded retention), stamped with the
    /// dispatch instant and ordering key so partitioned runs can merge
    /// notes back into sequential order.
    pub fn note_violation_keyed(&mut self, at: SimTime, key: (u64, u64), msg: String) {
        self.violations_total += 1;
        if self.mem_violations.len() < MAX_VIOLATION_NOTES {
            self.mem_violations.push(msg);
            self.viol_keys.push((at, key));
        }
    }

    /// Merge per-partition metrics into what an equivalent sequential run
    /// would have recorded. Counters sum; sink captures (keyed by
    /// `(stage, instance)`, each owned by exactly one partition) union;
    /// traces interleave by dispatch key ([`Trace::merge`]); violation
    /// notes re-sort by dispatch key and re-truncate, which is exact
    /// because the globally-first `MAX_VIOLATION_NOTES` notes are
    /// contained in the union of the per-partition prefixes.
    pub fn merge(parts: Vec<Metrics<R>>) -> Metrics<R> {
        let mut it = parts.into_iter();
        let mut m = it.next().expect("merge needs at least one partition");
        let mut traces = vec![std::mem::replace(&mut m.trace, Trace::disabled())];
        let mut viols: Vec<(SimTime, (u64, u64), String)> = m
            .viol_keys
            .drain(..)
            .zip(m.mem_violations.drain(..))
            .map(|((at, key), msg)| (at, key, msg))
            .collect();
        for mut p in it {
            assert_eq!(
                p.stage_work.len(),
                m.stage_work.len(),
                "stage count mismatch"
            );
            for (a, b) in m.stage_work.iter_mut().zip(&p.stage_work) {
                *a += *b;
            }
            for (a, b) in m.stage_records_in.iter_mut().zip(&p.stage_records_in) {
                *a += *b;
            }
            for (a, b) in m.stage_usage.iter_mut().zip(&p.stage_usage) {
                a.absorb(b);
            }
            let before = m.sink_outputs.len() + p.sink_outputs.len();
            m.sink_outputs.append(&mut p.sink_outputs);
            debug_assert_eq!(m.sink_outputs.len(), before, "sink instance owned twice");
            m.records_processed += p.records_processed;
            m.reweights += p.reweights;
            m.fault.absorb(&p.fault);
            m.repair.absorb(&p.repair);
            // Trajectory and final histogram live on the coordinator's
            // partition only; take whichever partition has them.
            if m.repair_samples.is_empty() {
                m.repair_samples = std::mem::take(&mut p.repair_samples);
            }
            if m.replica_hist.is_empty() {
                m.replica_hist = std::mem::take(&mut p.replica_hist);
            }
            if m.repair_src_bytes.len() < p.repair_src_bytes.len() {
                m.repair_src_bytes.resize(p.repair_src_bytes.len(), 0);
            }
            for (a, b) in m.repair_src_bytes.iter_mut().zip(&p.repair_src_bytes) {
                *a += *b;
            }
            m.violations_total += p.violations_total;
            m.last_activity = m.last_activity.max(p.last_activity);
            viols.extend(
                p.viol_keys
                    .drain(..)
                    .zip(p.mem_violations.drain(..))
                    .map(|((at, key), msg)| (at, key, msg)),
            );
            traces.push(p.trace);
        }
        viols.sort_by_key(|v| (v.0, v.1));
        viols.truncate(MAX_VIOLATION_NOTES);
        for (at, key, msg) in viols {
            m.viol_keys.push((at, key));
            m.mem_violations.push(msg);
        }
        m.trace = Trace::merge(traces);
        m
    }

    /// Total violations seen (including ones not retained).
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::Rec8;

    #[test]
    fn violation_list_is_bounded() {
        let mut m: Metrics<Rec8> = Metrics::new(1);
        for i in 0..100 {
            m.note_violation_keyed(SimTime::ZERO, (0, 0), format!("v{i}"));
        }
        assert_eq!(m.mem_violations.len(), MAX_VIOLATION_NOTES);
        assert_eq!(m.violations_total(), 100);
    }

    #[test]
    fn gauge_integrates_depth_over_time() {
        let mut g = StageGauge::new(2);
        // Instance 0: 10 records queued over [100, 300) of a 400ns run.
        g.add(0, 10, SimTime(100));
        g.sub(0, 10, SimTime(300));
        let s = g.stats(SimTime(400));
        assert!((s[0].mean_depth - 10.0 * 200.0 / 400.0).abs() < 1e-9);
        assert_eq!(s[0].peak_depth, 10);
        assert_eq!(s[0].final_depth, 0);
        // Instance 1 never saw traffic.
        assert_eq!(s[1].peak_depth, 0);
        assert_eq!(s[1].mean_depth, 0.0);
    }

    #[test]
    fn gauge_counts_unconsumed_tail_and_peak() {
        let mut g = StageGauge::new(1);
        g.add(0, 4, SimTime(0));
        g.add(0, 4, SimTime(50));
        g.sub(0, 6, SimTime(100));
        let s = g.stats(SimTime(200));
        // 4 over [0,50), 8 over [50,100), 2 over [100,200].
        let area = 4.0 * 50.0 + 8.0 * 50.0 + 2.0 * 100.0;
        assert!((s[0].mean_depth - area / 200.0).abs() < 1e-9);
        assert_eq!(s[0].peak_depth, 8);
        assert_eq!(s[0].final_depth, 2);
        assert_eq!(g.depths(), &[2]);
    }

    #[test]
    fn gauge_clear_drops_depth_but_keeps_history() {
        let mut g = StageGauge::new(1);
        g.add(0, 100, SimTime(0));
        g.clear(0, SimTime(10));
        let s = g.stats(SimTime(100));
        assert_eq!(s[0].final_depth, 0);
        assert_eq!(s[0].peak_depth, 100);
        assert!((s[0].mean_depth - 100.0 * 10.0 / 100.0).abs() < 1e-9);
    }
}
