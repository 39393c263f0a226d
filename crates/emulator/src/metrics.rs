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
use crate::runtime::DispatchCensus;
use lmas_core::{Packet, Record, Work};
use lmas_sim::{merge_keyed, Keyed, SimTime, Trace};
use std::collections::BTreeMap;

/// How one backlog mutation changes an instance's queued records.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Backlog {
    /// Records were routed to the instance.
    Add(u64),
    /// The instance started records, or a bounce took them back.
    Sub(u64),
    /// The instance's queue vanished (node crash).
    Clear,
}

impl Backlog {
    /// Apply the change to a depth.
    fn apply(self, depth: &mut u64) {
        *depth = match self {
            Backlog::Add(r) => *depth + r,
            Backlog::Sub(r) => depth.saturating_sub(r),
            Backlog::Clear => 0,
        };
    }
}

/// One logged backlog mutation.
#[derive(Debug, Clone, Copy)]
struct BacklogOp {
    stage: usize,
    instance: usize,
    change: Backlog,
}

/// One stage's backlog replayed from the log: per instance, the depth,
/// its peak, and depth integrated over time as a `u128`
/// record·nanosecond integral — pure integer arithmetic, so the mean
/// depth is bit-reproducible.
struct Replay {
    depth: Vec<u64>,
    last: Vec<SimTime>,
    integral: Vec<u128>,
    peak: Vec<u64>,
}

impl Replay {
    /// `n` instances, all empty at time zero.
    fn new(n: usize) -> Replay {
        Replay {
            depth: vec![0; n],
            last: vec![SimTime::ZERO; n],
            integral: vec![0; n],
            peak: vec![0; n],
        }
    }

    /// Accumulate depth·time up to `now` for instance `i`, then apply
    /// `change`.
    fn step(&mut self, i: usize, change: Backlog, now: SimTime) {
        let dt = now.saturating_since(self.last[i]).as_nanos();
        self.integral[i] += self.depth[i] as u128 * dt as u128;
        self.last[i] = self.last[i].max(now);
        change.apply(&mut self.depth[i]);
        self.peak[i] = self.peak[i].max(self.depth[i]);
    }

    /// Per-instance statistics over the horizon `[0, end]`.
    fn stats(&self, end: SimTime) -> Vec<QueueStat> {
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

/// Time-weighted backlog statistics for one stage instance. The backlog
/// counts the records routed to the instance that it has not started
/// yet, including those still on the wire; a bounce takes its records
/// back and a crash empties it.
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
/// bytes it put on the wire (zero-byte end-of-stream charges excluded).
/// Purely observational — accumulating it never moves virtual time — and
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
    /// Functor-state memory contract violations observed (bounded
    /// list), each stamped with the dispatch that noted it.
    pub mem_violations: Vec<Keyed<String>>,
    /// Event trace of the run (disabled unless the cluster config asks
    /// for one; recording through [`Trace::record_with_key`] is free
    /// when disabled).
    pub trace: Trace,
    /// Fault-layer activity counters (all zero on a fault-free run).
    pub fault: FaultStats,
    /// Last instant any *application* progress happened (processing,
    /// source reads, sink writes). The makespan starts from it, so that
    /// late plan events (e.g. a recovery scheduled after the job
    /// drained) don't inflate it.
    pub last_activity: SimTime,
    /// Times the runtime balancer re-weighted a replica router (zero
    /// when the balancer is off or never left its deadband).
    pub reweights: u64,
    /// Dispatches per message kind (summed across partitions).
    pub census: DispatchCensus,
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
    /// Per stage, the per-instance backlog depths the routers read. A
    /// partition of a parallel run sees only its own mutations, so its
    /// depths are not the global ones; such runs never route by backlog.
    depths: Vec<Vec<u64>>,
    /// Every backlog mutation in dispatch order, replayed by
    /// [`Metrics::queue_stats`].
    backlog_log: Vec<Keyed<BacklogOp>>,
}

impl<R: Record> Metrics<R> {
    /// Metrics for a job whose stage `s` has `replication[s]` instances.
    pub fn new(replication: &[usize]) -> Metrics<R> {
        let stages = replication.len();
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
            census: DispatchCensus::default(),
            repair: RepairStats::default(),
            repair_samples: Vec::new(),
            replica_hist: Vec::new(),
            repair_src_bytes: Vec::new(),
            violations_total: 0,
            depths: replication.iter().map(|&n| vec![0; n]).collect(),
            backlog_log: Vec::new(),
        }
    }

    /// Note application progress at `now` (monotone max).
    pub fn note_activity(&mut self, now: SimTime) {
        self.last_activity = self.last_activity.max(now);
    }

    /// Note a memory violation (bounded retention), stamped with the
    /// dispatch instant and ordering key so partitioned runs can merge
    /// notes back into sequential order.
    pub fn note_violation(&mut self, at: SimTime, key: (u64, u64), msg: String) {
        self.violations_total += 1;
        if self.mem_violations.len() < MAX_VIOLATION_NOTES {
            self.mem_violations.push((at, key, msg));
        }
    }

    /// Change instance `instance` of `stage`'s backlog at `at`, in the
    /// dispatch with key `key`.
    pub(crate) fn note_backlog(
        &mut self,
        at: SimTime,
        key: (u64, u64),
        stage: usize,
        instance: usize,
        change: Backlog,
    ) {
        change.apply(&mut self.depths[stage][instance]);
        let op = BacklogOp {
            stage,
            instance,
            change,
        };
        self.backlog_log.push((at, key, op));
    }

    /// Instantaneous per-instance backlog depths of `stage`.
    pub(crate) fn depths(&self, stage: usize) -> &[u64] {
        &self.depths[stage]
    }

    /// Per-stage, per-instance backlog statistics over `[0, end]`,
    /// replayed from the backlog log.
    pub(crate) fn queue_stats(&self, end: SimTime) -> Vec<Vec<QueueStat>> {
        let mut stages: Vec<Replay> = self.depths.iter().map(|d| Replay::new(d.len())).collect();
        for &(at, _, op) in &self.backlog_log {
            stages[op.stage].step(op.instance, op.change, at);
        }
        stages.iter().map(|r| r.stats(end)).collect()
    }

    /// Merge per-partition metrics into what an equivalent sequential run
    /// would have recorded. Counters sum; sink captures (keyed by
    /// `(stage, instance)`, each owned by exactly one partition) union;
    /// the backlog logs, violation notes and traces interleave by
    /// dispatch key ([`merge_keyed`]). Violation notes re-truncate, which
    /// is exact because the globally-first `MAX_VIOLATION_NOTES` notes
    /// are contained in the union of the per-partition prefixes; the
    /// trace keeps its tail ([`Trace::merge`]). The depths stay the
    /// first partition's: only a one-partition run reads them.
    pub fn merge(parts: Vec<Metrics<R>>) -> Metrics<R> {
        let mut it = parts.into_iter();
        let mut m = it.next().expect("merge needs at least one partition");
        let mut traces = vec![std::mem::replace(&mut m.trace, Trace::disabled())];
        let mut viols = vec![std::mem::take(&mut m.mem_violations)];
        let mut logs = vec![std::mem::take(&mut m.backlog_log)];
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
            m.census.absorb(&p.census);
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
            viols.push(p.mem_violations);
            logs.push(p.backlog_log);
            traces.push(p.trace);
        }
        m.mem_violations = merge_keyed(viols);
        m.mem_violations.truncate(MAX_VIOLATION_NOTES);
        m.backlog_log = merge_keyed(logs);
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
        let mut m: Metrics<Rec8> = Metrics::new(&[1]);
        for i in 0..100 {
            m.note_violation(SimTime::ZERO, (0, 0), format!("v{i}"));
        }
        assert_eq!(m.mem_violations.len(), MAX_VIOLATION_NOTES);
        assert_eq!(m.violations_total(), 100);
    }

    /// Log `(instance, change, at)` mutations of stage 0 of a metrics
    /// with `n` instances there, all at dispatch key `(0, 0)`.
    fn logged(n: usize, ops: &[(usize, Backlog, u64)]) -> Metrics<Rec8> {
        let mut m = Metrics::new(&[n]);
        for &(i, change, at) in ops {
            m.note_backlog(SimTime(at), (0, 0), 0, i, change);
        }
        m
    }

    #[test]
    fn gauge_integrates_depth_over_time() {
        // Instance 0: 10 records queued over [100, 300) of a 400ns run.
        let m = logged(2, &[(0, Backlog::Add(10), 100), (0, Backlog::Sub(10), 300)]);
        let s = &m.queue_stats(SimTime(400))[0];
        assert!((s[0].mean_depth - 10.0 * 200.0 / 400.0).abs() < 1e-9);
        assert_eq!(s[0].peak_depth, 10);
        assert_eq!(s[0].final_depth, 0);
        // Instance 1 never saw traffic.
        assert_eq!(s[1].peak_depth, 0);
        assert_eq!(s[1].mean_depth, 0.0);
    }

    #[test]
    fn gauge_counts_unconsumed_tail_and_peak() {
        let m = logged(
            1,
            &[
                (0, Backlog::Add(4), 0),
                (0, Backlog::Add(4), 50),
                (0, Backlog::Sub(6), 100),
            ],
        );
        let s = &m.queue_stats(SimTime(200))[0];
        // 4 over [0,50), 8 over [50,100), 2 over [100,200].
        let area = 4.0 * 50.0 + 8.0 * 50.0 + 2.0 * 100.0;
        assert!((s[0].mean_depth - area / 200.0).abs() < 1e-9);
        assert_eq!(s[0].peak_depth, 8);
        assert_eq!(s[0].final_depth, 2);
        assert_eq!(m.depths(0), &[2]);
    }

    #[test]
    fn merged_backlog_replays_in_dispatch_order() {
        // A sender on one partition charges the instance, its owner on
        // another starts the records, and the sender charges it again:
        // replayed in (instant, key) order the peak is 10, not 15.
        let mut a: Metrics<Rec8> = Metrics::new(&[1]);
        let mut b: Metrics<Rec8> = Metrics::new(&[1]);
        a.note_backlog(SimTime(0), (0, 1), 0, 0, Backlog::Add(10));
        a.note_backlog(SimTime(300), (1, 1), 0, 0, Backlog::Add(5));
        b.note_backlog(SimTime(100), (0, 2), 0, 0, Backlog::Sub(10));
        let s = &Metrics::merge(vec![a, b]).queue_stats(SimTime(400))[0];
        assert_eq!(s[0].peak_depth, 10);
        assert_eq!(s[0].final_depth, 5);
        assert!((s[0].mean_depth - (10.0 * 100.0 + 5.0 * 100.0) / 400.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_clear_drops_depth_but_keeps_history() {
        let m = logged(1, &[(0, Backlog::Add(100), 0), (0, Backlog::Clear, 10)]);
        let s = &m.queue_stats(SimTime(100))[0];
        assert_eq!(s[0].final_depth, 0);
        assert_eq!(s[0].peak_depth, 100);
        assert!((s[0].mean_depth - 100.0 * 10.0 / 100.0).abs() < 1e-9);
    }
}
