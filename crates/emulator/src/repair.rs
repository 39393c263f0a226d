//! Background re-replication: durable-block replica tracking and repair.
//!
//! The emulator's durability layer models a set of `blocks` durable
//! blocks, each replicated on `target_replicas` distinct ASUs. Node
//! crashes destroy the copies on the crashed ASU; a background repair
//! engine re-creates the missing copies by streaming the block from a
//! surviving holder to a fresh destination, under a per-node
//! repair-bandwidth cap. Repair traffic is charged against the same
//! disk and NIC resources foreground jobs use, so re-replication
//! *contends* with the application — the paper's "network storage is a
//! shared resource" premise applied to the storage system's own
//! maintenance traffic.
//!
//! The module is split the same way the fault layer is:
//!
//! - [`RepairEngine`] is a *pure* state machine: apply crash / recover /
//!   detect / completion events, get back the repair commands to issue.
//!   No virtual time, no actors — directly testable.
//! - [`repair_timeline`] precomputes the engine's event feed from the
//!   fault plan and the [`DetectedTimeline`], so the runtime's repair
//!   coordinator replays static data exactly like the fault controller
//!   does. That is what keeps repair runs on the partitioned engine:
//!   every input to the coordinator is either pre-seeded or arrives via
//!   lookahead-respecting messages.
//! - [`mean_field_trajectory`] integrates the mean-field ODE of Sun et
//!   al. (arXiv 1701.00335) adapted to this engine's semantics, giving
//!   the closed-form replica-distribution prediction the `repair_fleet`
//!   bench validates against.
//!
//! Repair triggering follows the failure detector: a crash enqueues its
//! blocks for repair only once the detector fires ([`DetectedTimeline`]
//! semantics — a node that recovers within the detection window is
//! never detected). Such a timely-recovered node rejoins blank, so its
//! rejoin announcement triggers the repairs instead.

use crate::fault::DetectedTimeline;
use lmas_sim::{DetRng, FaultEvent, FaultPlan, SimDuration, SimTime};

/// Parameters of the background re-replication engine.
///
/// Carried inside [`FaultSpec`](crate::FaultSpec); repair only engages
/// when the fault layer itself is active (there is nothing to repair
/// without a fault plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairSpec {
    /// Number of durable blocks tracked by the engine.
    pub blocks: u64,
    /// Replication target `r`: every block starts with `r` copies on
    /// distinct ASUs and repair aims to keep it there.
    pub target_replicas: u32,
    /// Size of one block in bytes (the unit of repair transfer).
    pub block_bytes: u64,
    /// Per-node repair bandwidth cap in bytes/sec: each ASU *sources*
    /// repair reads no faster than this, regardless of how fast its
    /// disk and NIC could go. (The actual transfer still pays the disk
    /// and NIC models on top, so repair contends with foreground work.)
    pub repair_bandwidth: f64,
    /// Replica-histogram sampling cadence for the trajectory record;
    /// zero disables sampling (the final histogram is always reported).
    pub sample_every: SimDuration,
}

impl RepairSpec {
    /// A repair spec with the given fleet-model parameters and no
    /// trajectory sampling.
    pub fn new(blocks: u64, target_replicas: u32, block_bytes: u64, repair_bandwidth: f64) -> Self {
        RepairSpec {
            blocks,
            target_replicas,
            block_bytes,
            repair_bandwidth,
            sample_every: SimDuration::ZERO,
        }
    }

    /// This spec sampling the replica histogram every `every`.
    pub fn with_sampling(mut self, every: SimDuration) -> Self {
        self.sample_every = every;
        self
    }

    /// Validate against a fleet of `asus` ASUs.
    pub fn validate(&self, asus: usize) -> Result<(), &'static str> {
        if self.blocks == 0 {
            return Err("repair spec tracks zero blocks");
        }
        if self.target_replicas == 0 {
            return Err("replication target must be at least 1");
        }
        if self.target_replicas as usize > asus {
            return Err("replication target exceeds the ASU count");
        }
        if self.block_bytes == 0 {
            return Err("block size must be positive");
        }
        if !(self.repair_bandwidth > 0.0 && self.repair_bandwidth.is_finite()) {
            return Err("repair bandwidth must be positive and finite");
        }
        Ok(())
    }

    /// The pacing interval between repair dispatches on one node:
    /// `block_bytes / repair_bandwidth`.
    pub fn pace(&self) -> SimDuration {
        SimDuration::from_nanos(
            ((self.block_bytes as f64 / self.repair_bandwidth) * 1e9).ceil() as u64,
        )
        .max(SimDuration::from_nanos(1))
    }
}

/// Counters of repair-engine activity during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Repair assignments created (including re-enqueues toward target
    /// and reassignments after a bounce).
    pub enqueued: u64,
    /// Repairs that landed a new copy.
    pub completed: u64,
    /// Assignments reissued after bouncing off a down source or
    /// destination.
    pub reassigned: u64,
    /// Completed transfers whose result was discarded (stale assignment
    /// id, or the destination died before the copy could be credited).
    pub wasted: u64,
    /// Blocks whose available-copy count hit zero: permanent data loss.
    pub blocks_lost: u64,
    /// Total bytes of repair traffic credited as new copies.
    pub bytes_repaired: u64,
}

impl RepairStats {
    /// True when the repair layer never acted.
    pub fn is_quiet(&self) -> bool {
        *self == RepairStats::default()
    }

    /// Fold another partition's counters into this one.
    pub fn absorb(&mut self, other: &RepairStats) {
        self.enqueued += other.enqueued;
        self.completed += other.completed;
        self.reassigned += other.reassigned;
        self.wasted += other.wasted;
        self.blocks_lost += other.blocks_lost;
        self.bytes_repaired += other.bytes_repaired;
    }
}

/// One point of the replica-distribution trajectory: at virtual time
/// `at`, `hist[k]` blocks had `k` available copies (`k` clamped to the
/// replication target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairSample {
    /// Sample time.
    pub at: SimTime,
    /// Blocks per available-copy count, `hist[0..=target]`.
    pub hist: Vec<u64>,
}

/// One repair transfer: stream `block` (`bytes` bytes) from the source
/// agent that receives this job to ASU `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairJob {
    /// Assignment id (stale completions are discarded by id).
    pub id: u64,
    /// The block being re-replicated.
    pub block: u64,
    /// Destination ASU ordinal.
    pub dest: u32,
    /// Transfer size.
    pub bytes: u64,
    /// The block is more than one copy below target: agents serve
    /// critical jobs ahead of routine ones (FIFO within each band), so
    /// a last-copy block never waits behind a backlog of single-loss
    /// repairs.
    pub critical: bool,
}

/// A command the engine asks the harness to carry out: queue `job` at
/// the repair agent of source ASU `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairCmd {
    /// Source ASU ordinal (a current up holder of the block).
    pub src: u32,
    /// The transfer to perform.
    pub job: RepairJob,
}

/// An input event for the repair coordinator, precomputed from the
/// fault plan (see [`repair_timeline`]). ASUs are identified by their
/// ordinal (`0..asus`), not the dense fault-layer node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairEv {
    /// ASU crashed (its copies are destroyed).
    Crash(u32),
    /// ASU returned to service.
    Recover(u32),
    /// The failure detector declared the ASU down (repairs enqueue).
    Detect(u32),
}

/// The coordinator's static event feed: every crash/recover of an ASU
/// node in the plan plus every detector verdict on an ASU, in firing
/// order. Same-instant entries keep plan order first, detections after
/// — the phase order both engines replay identically.
pub fn repair_timeline(
    plan: &FaultPlan,
    detected: &DetectedTimeline,
    hosts: usize,
    asus: usize,
) -> Vec<(SimTime, RepairEv)> {
    let mut evs: Vec<(SimTime, RepairEv)> = Vec::new();
    for ev in plan.sorted_events() {
        let node = ev.node();
        if node < hosts || node >= hosts + asus {
            continue; // hosts hold no replicas; out-of-range is validated upstream
        }
        let asu = (node - hosts) as u32;
        match ev {
            FaultEvent::Crash { at, .. } => evs.push((at, RepairEv::Crash(asu))),
            FaultEvent::Recover { at, .. } => evs.push((at, RepairEv::Recover(asu))),
            FaultEvent::Degrade { .. } | FaultEvent::LinkLoss { .. } => {}
        }
    }
    for &(node, at) in detected.detections() {
        if node >= hosts && node < hosts + asus {
            evs.push((at, RepairEv::Detect((node - hosts) as u32)));
        }
    }
    evs.sort_by_key(|&(at, _)| at); // stable: plan order, then detections
    evs
}

/// One active repair assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Assignment {
    id: u64,
    src: u32,
    dest: u32,
}

/// Seed of the deterministic initial placement (independent of the
/// run's routing seed).
const PLACEMENT_SEED: u64 = 0x0B10;

/// The pure re-replication state machine.
///
/// Apply events in virtual-time order; every method returns the repair
/// commands to issue. Initial placement draws from one-shot [`DetRng`]
/// streams keyed by block; repair sources are picked least-loaded-first
/// over the live holders and destinations least-filled-first over the
/// live non-holders. Every decision is a pure function of the engine
/// state at the triggering event, so runs replay identically.
#[derive(Debug, Clone)]
pub struct RepairEngine {
    spec: RepairSpec,
    asus: usize,
    up: Vec<bool>,
    /// Per block: ASUs holding a copy (always up: a crash destroys its
    /// node's copies).
    holders: Vec<Vec<u32>>,
    /// Per block: currently *available* (up-holder) copies.
    avail: Vec<u32>,
    assign: Vec<Option<Assignment>>,
    /// Per ASU: blocks holding a copy there.
    copies_on: Vec<Vec<u64>>,
    /// Per ASU: blocks degraded by its crash, awaiting the repair
    /// trigger (detection, or rejoin).
    pending: Vec<Vec<u64>>,
    /// Per ASU: outstanding assignments sourced there. Source selection
    /// is least-loaded over the live holders, so a crash burst spreads
    /// across the survivors instead of piling onto whichever holder the
    /// dice favour — the fleet drains a burst at aggregate bandwidth.
    load: Vec<u32>,
    /// Per ASU: *planned* copies — held copies plus in-flight repair
    /// assignments targeting the node. Destination selection is
    /// least-filled over the live non-holders (see
    /// [`RepairEngine::choose_dest`]).
    fill: Vec<u64>,
    next_id: u64,
    hist: Vec<u64>,
    /// Activity counters (mirrored into the run metrics).
    pub stats: RepairStats,
}

impl RepairEngine {
    /// A fresh engine over `asus` ASUs: every block placed on
    /// `target_replicas` distinct ASUs by the placement seed.
    pub fn new(spec: RepairSpec, asus: usize) -> RepairEngine {
        RepairEngine::placed(spec, asus, PLACEMENT_SEED)
    }

    /// [`RepairEngine::new`] with the initial placement drawn from `seed`.
    fn placed(spec: RepairSpec, asus: usize, seed: u64) -> RepairEngine {
        debug_assert!(spec.validate(asus).is_ok(), "spec validated upstream");
        let r = spec.target_replicas;
        let mut holders = Vec::with_capacity(spec.blocks as usize);
        let mut copies_on: Vec<Vec<u64>> = vec![Vec::new(); asus];
        for b in 0..spec.blocks {
            let mut rng = DetRng::stream(seed, b);
            let mut hs: Vec<u32> = Vec::with_capacity(r as usize);
            while hs.len() < r as usize {
                let cand = rng.gen_index(asus) as u32;
                if !hs.contains(&cand) {
                    hs.push(cand);
                }
            }
            for &h in &hs {
                copies_on[h as usize].push(b);
            }
            holders.push(hs);
        }
        let mut hist = vec![0u64; r as usize + 1];
        hist[r as usize] = spec.blocks;
        let fill: Vec<u64> = copies_on.iter().map(|c| c.len() as u64).collect();
        RepairEngine {
            spec,
            asus,
            up: vec![true; asus],
            holders,
            avail: vec![r; spec.blocks as usize],
            assign: vec![None; spec.blocks as usize],
            copies_on,
            pending: vec![Vec::new(); asus],
            load: vec![0; asus],
            fill,
            next_id: 0,
            hist,
            stats: RepairStats::default(),
        }
    }

    /// Blocks per available-copy count, `hist[0..=target]`.
    pub fn hist(&self) -> &[u64] {
        &self.hist
    }

    /// The trajectory point for time `at`.
    pub fn sample(&self, at: SimTime) -> RepairSample {
        RepairSample {
            at,
            hist: self.hist.clone(),
        }
    }

    /// Apply one precomputed timeline event.
    pub fn on_event(&mut self, ev: RepairEv) -> Vec<RepairCmd> {
        match ev {
            RepairEv::Crash(asu) => self.on_crash(asu),
            RepairEv::Recover(asu) => self.on_recover(asu),
            RepairEv::Detect(asu) => self.on_detect(asu),
        }
    }

    fn set_avail(&mut self, b: u64, new: u32) {
        let t = self.spec.target_replicas as usize;
        let old = self.avail[b as usize];
        self.hist[(old as usize).min(t)] -= 1;
        self.hist[(new as usize).min(t)] += 1;
        if old > 0 && new == 0 {
            self.stats.blocks_lost += 1;
        }
        self.avail[b as usize] = new;
    }

    fn on_crash(&mut self, asu: u32) -> Vec<RepairCmd> {
        let a = asu as usize;
        if !self.up[a] {
            return Vec::new(); // double crash in the plan: idempotent
        }
        self.up[a] = false;
        // The crash destroyed this node's copies; planned fill from
        // in-flight assignments targeting it stays until they resolve
        // (their completions are discarded as wasted).
        let blocks = std::mem::take(&mut self.copies_on[a]);
        self.fill[a] -= blocks.len() as u64;
        for b in blocks {
            self.holders[b as usize].retain(|&h| h != asu);
            let av = self.avail[b as usize] - 1;
            self.set_avail(b, av);
            // Repairs enqueue when the loss is *observed*: at the
            // detector's verdict, or at rejoin. An assignment already
            // covering the block keeps running (its source was a
            // different holder, or it will bounce).
            self.pending[a].push(b);
        }
        Vec::new()
    }

    fn on_recover(&mut self, asu: u32) -> Vec<RepairCmd> {
        let a = asu as usize;
        if self.up[a] {
            return Vec::new();
        }
        self.up[a] = true;
        // The node rejoins blank and announces itself; that report
        // triggers the repairs its crash caused — including for crashes
        // the detector never saw (timely recovery).
        let mut cmds = Vec::new();
        for b in std::mem::take(&mut self.pending[a]) {
            self.try_enqueue(b, &mut cmds);
        }
        cmds
    }

    fn on_detect(&mut self, asu: u32) -> Vec<RepairCmd> {
        let mut cmds = Vec::new();
        for b in std::mem::take(&mut self.pending[asu as usize]) {
            self.try_enqueue(b, &mut cmds);
        }
        cmds
    }

    /// A repair transfer finished (`ok`) or bounced off a down
    /// destination (`!ok`).
    pub fn on_done(&mut self, id: u64, block: u64, dest: u32, ok: bool) -> Vec<RepairCmd> {
        let mut cmds = Vec::new();
        let bi = block as usize;
        let Some(asg) = self.assign[bi].filter(|a| a.id == id) else {
            self.stats.wasted += 1; // stale: reassigned meanwhile
            return cmds;
        };
        self.assign[bi] = None;
        self.load[asg.src as usize] -= 1;
        if !ok {
            // Destination was down at write time: pick a new one.
            self.fill[asg.dest as usize] -= 1;
            self.stats.reassigned += 1;
            self.try_enqueue(block, &mut cmds);
            return cmds;
        }
        let target = self.spec.target_replicas;
        if !self.up[dest as usize] || self.holders[bi].contains(&dest) || self.avail[bi] >= target {
            // The copy landed somewhere useless: the destination died
            // before it could be credited, or the block no longer needs
            // it. The write is discarded (trimmed).
            self.fill[asg.dest as usize] -= 1;
            self.stats.wasted += 1;
        } else {
            self.holders[bi].push(dest);
            self.copies_on[dest as usize].push(block);
            let av = self.avail[bi] + 1;
            self.set_avail(block, av);
            self.stats.completed += 1;
            self.stats.bytes_repaired += self.spec.block_bytes;
        }
        if self.avail[bi] > 0 && self.avail[bi] < target {
            self.try_enqueue(block, &mut cmds); // next round toward target
        }
        cmds
    }

    /// A queued repair bounced off a down source agent.
    pub fn on_bounce(&mut self, id: u64, block: u64) -> Vec<RepairCmd> {
        let mut cmds = Vec::new();
        let bi = block as usize;
        let Some(asg) = self.assign[bi].filter(|a| a.id == id) else {
            return cmds; // stale bounce
        };
        self.assign[bi] = None;
        self.load[asg.src as usize] -= 1;
        self.fill[asg.dest as usize] -= 1;
        self.stats.reassigned += 1;
        self.try_enqueue(block, &mut cmds);
        cmds
    }

    /// Create an assignment for `block` if it is repairable: degraded,
    /// unassigned, with a live holder and a live non-holder to write to.
    fn try_enqueue(&mut self, block: u64, cmds: &mut Vec<RepairCmd>) {
        let bi = block as usize;
        let target = self.spec.target_replicas;
        if self.assign[bi].is_some() || self.avail[bi] == 0 || self.avail[bi] >= target {
            return;
        }
        // Least-loaded live holder, node index as the tiebreak: within
        // one trigger (a detected crash enqueueing a whole node's worth
        // of blocks) the loads rise as assignments are made, so the
        // burst round-robins across the survivors rather than queueing
        // hundreds of seconds behind one unlucky source.
        let src = self.holders[bi]
            .iter()
            .copied()
            .filter(|&h| self.up[h as usize])
            .min_by_key(|&h| (self.load[h as usize], h));
        debug_assert!(src.is_some(), "avail > 0 implies a live holder");
        let Some(src) = src else {
            return;
        };
        let Some(dest) = self.choose_dest(bi) else {
            return; // no live non-holder right now; a recovery re-triggers
        };
        let id = self.next_id;
        self.next_id += 1;
        self.assign[bi] = Some(Assignment { id, src, dest });
        self.load[src as usize] += 1;
        self.fill[dest as usize] += 1;
        self.stats.enqueued += 1;
        cmds.push(RepairCmd {
            src,
            job: RepairJob {
                id,
                block,
                dest,
                bytes: self.spec.block_bytes,
                critical: self.avail[bi] + 1 < target,
            },
        });
    }

    /// The least-filled live ASU not holding the block (planned copies,
    /// node index as the tiebreak). Fill-aware placement keeps per-node
    /// copy counts tight around the mean under churn: without it, copies
    /// pile up on whichever nodes have been up longest, and one crash of
    /// such a node degrades a large fraction of the fleet's blocks at
    /// once — exactly the correlated bursts the mean-field model (which
    /// assumes independent per-copy loss) cannot express.
    fn choose_dest(&self, bi: usize) -> Option<u32> {
        (0..self.asus as u32)
            .filter(|&c| self.up[c as usize] && !self.holders[bi].contains(&c))
            .min_by_key(|&c| (self.fill[c as usize], c))
    }
}

/// Parameters of the mean-field replica-distribution model (Sun et al.,
/// arXiv 1701.00335, adapted to this engine's semantics: per-copy
/// exponential loss at the node failure rate, FIFO repair shared across
/// a fleet of rate-capped sources, crash-destroys-copies).
#[derive(Debug, Clone, Copy)]
pub struct MeanFieldParams {
    /// Fleet size (replica-holding nodes).
    pub nodes: usize,
    /// Replication target `r`.
    pub target: u32,
    /// Tracked blocks.
    pub blocks: u64,
    /// Mean time to failure of one node.
    pub mttf: SimDuration,
    /// Mean time to recover (sets the up-fraction of repair capacity).
    pub mttr: SimDuration,
    /// Time one node needs to repair one block
    /// (`block_bytes / repair_bandwidth`).
    pub block_repair: SimDuration,
}

/// Integrate the mean-field ODE and return `x[k]` (fraction of blocks
/// with `k` available copies, `k = 0..=target`) at each requested time.
///
/// Dynamics: a block with `k` copies loses one at rate `k/mttf` (each
/// copy sits on a node whose residual lifetime is exponential). All
/// degraded blocks (`1 <= k < r`) are in repair; the fleet completes
/// repairs at `min(queue, up_nodes) / block_repair` blocks per second
/// (each transfer is paced to `block_repair`; with more queued blocks
/// than nodes the fleet saturates at its aggregate cap), shared across
/// the queue in proportion to class mass (the FIFO fluid limit).
/// `x[0]` is absorbing — data loss. Detection latency is not modeled
/// (it is milliseconds against repair times of seconds and lifetimes
/// of days); the bench tolerance absorbs it.
pub fn mean_field_trajectory(p: &MeanFieldParams, times: &[SimTime]) -> Vec<Vec<f64>> {
    let r = p.target as usize;
    let mttf = p.mttf.as_nanos() as f64;
    let mttr = p.mttr.as_nanos() as f64;
    let up_frac = mttf / (mttf + mttr);
    let up_nodes = up_frac * p.nodes as f64;
    let block_repair = p.block_repair.as_nanos() as f64;
    let blocks = p.blocks as f64;

    let horizon = times.iter().map(|t| t.as_nanos()).max().unwrap_or(0) as f64;
    // Step small against both the failure and the repair time scale,
    // bounded so pathological parameters stay cheap; the flux clamp
    // below keeps the scheme stable even when a step overshoots.
    let mut dt = (mttf / 200.0).min(block_repair / 2.0).max(1.0);
    if horizon / dt > 2e6 {
        dt = horizon / 2e6;
    }

    let mut x = vec![0.0f64; r + 1];
    x[r] = 1.0;
    let mut out = Vec::with_capacity(times.len());
    let mut t = 0.0f64;
    let mut next = 0usize;
    let sorted_ok = times.windows(2).all(|w| w[0] <= w[1]);
    debug_assert!(sorted_ok, "sample times must be ascending");
    loop {
        while next < times.len() && (times[next].as_nanos() as f64) <= t {
            out.push(x.clone());
            next += 1;
        }
        if next >= times.len() {
            break;
        }
        let step = dt.min(times[next].as_nanos() as f64 - t).max(1.0);
        // Queue of degraded blocks (fractions 1..r-1 of the population).
        let q: f64 = x[1..r].iter().sum();
        let q_blocks = q * blocks;
        let rho = if q_blocks > 0.0 {
            (q_blocks.min(up_nodes) / (q_blocks * block_repair)).min(1.0 / block_repair)
        } else {
            0.0
        };
        // Desired per-state fluxes over `step`, then clamp so no state
        // goes negative (outflux at most the state's mass).
        let mut loss = vec![0.0f64; r + 1]; // k -> k-1
        let mut fix = vec![0.0f64; r + 1]; // k -> k+1
        for k in 1..=r {
            loss[k] = (k as f64) / mttf * x[k] * step;
        }
        for k in 1..r {
            fix[k] = rho * x[k] * step;
        }
        for k in 1..=r {
            let out_k = loss[k] + fix[k];
            if out_k > x[k] && out_k > 0.0 {
                let scale = x[k] / out_k;
                loss[k] *= scale;
                fix[k] *= scale;
            }
        }
        for k in 1..=r {
            x[k] -= loss[k] + fix[k];
            x[k - 1] += loss[k];
            if k < r {
                x[k + 1] += fix[k];
            }
        }
        t += step;
    }
    out
}

/// Mean available copies of a distribution `x[0..=r]`.
pub fn mean_copies(x: &[f64]) -> f64 {
    x.iter().enumerate().map(|(k, &v)| k as f64 * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(blocks: u64, r: u32) -> RepairSpec {
        RepairSpec::new(blocks, r, 1 << 20, 8.0 * (1 << 20) as f64)
    }

    #[test]
    fn placement_is_seeded_and_distinct() {
        let e1 = RepairEngine::new(spec(64, 3), 8);
        let e2 = RepairEngine::new(spec(64, 3), 8);
        assert_eq!(e1.holders, e2.holders, "same seed, same placement");
        for hs in &e1.holders {
            assert_eq!(hs.len(), 3);
            let mut d = hs.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "copies on distinct ASUs");
            assert!(d.iter().all(|&h| (h as usize) < 8));
        }
        assert_eq!(e1.hist(), &[0, 0, 0, 64]);
        let e3 = RepairEngine::placed(spec(64, 3), 8, 99);
        assert_ne!(
            e1.holders, e3.holders,
            "different seed, different placement"
        );
    }

    #[test]
    fn crash_detect_repair_cycle_restores_target() {
        let mut e = RepairEngine::new(spec(32, 2), 6);
        assert!(e.on_crash(0).is_empty(), "repairs wait for the detector");
        let degraded: u64 = e.hist()[1];
        assert!(degraded > 0, "ASU 0 held copies");
        let mut cmds = e.on_detect(0);
        assert_eq!(cmds.len() as u64, degraded, "one fetch per degraded block");
        // Drive every transfer to completion (all other nodes are up).
        while let Some(RepairCmd { src, job }) = cmds.pop() {
            assert_ne!(src, 0, "no repair sourced from the down node");
            assert_ne!(job.dest, 0, "no repair written to the down node");
            cmds.extend(e.on_done(job.id, job.block, job.dest, true));
        }
        assert_eq!(e.hist()[2], 32, "all blocks back at target");
        assert_eq!(e.stats.completed, degraded);
        assert_eq!(e.stats.blocks_lost, 0);
    }

    #[test]
    fn rejoin_triggers_repairs_in_destroy_mode() {
        // Crash + recover without a detection (timely recovery): the
        // node rejoins blank, and that rejoin triggers the repairs.
        let mut e = RepairEngine::new(spec(32, 2), 6);
        e.on_crash(0);
        let degraded = e.hist()[1];
        let cmds = e.on_recover(0);
        assert_eq!(cmds.len() as u64, degraded);
        assert!(
            e.on_detect(0).is_empty(),
            "nothing pending once rejoin handled it"
        );
    }

    #[test]
    fn losing_every_holder_counts_loss_once() {
        let mut e = RepairEngine::new(spec(16, 2), 4);
        for a in 0..4 {
            e.on_crash(a);
        }
        assert_eq!(e.hist()[0], 16);
        assert_eq!(e.stats.blocks_lost, 16);
        // Detection finds no live source: nothing is dispatched.
        for a in 0..4 {
            assert!(e.on_detect(a).is_empty());
        }
    }

    #[test]
    fn bounce_reassigns_to_a_live_source() {
        let mut e = RepairEngine::new(spec(32, 2), 6);
        e.on_crash(0);
        let cmds = e.on_detect(0);
        let RepairCmd { src, job } = cmds[0];
        // The chosen source crashes before serving the fetch; the agent
        // bounces the job back.
        e.on_crash(src);
        let re = e.on_bounce(job.id, job.block);
        match re.first() {
            Some(&RepairCmd { src: s2, job: j2 }) => {
                assert_ne!(s2, src);
                assert_ne!(j2.id, job.id, "fresh assignment id");
            }
            None => {
                // Both holders down: block is lost (r=2), nothing to do.
                assert_eq!(e.avail[job.block as usize], 0);
            }
        }
        assert!(e.stats.reassigned >= 1);
        // The superseded id is stale if its transfer finishes anyway.
        let hist = e.hist().to_vec();
        assert!(e.on_done(job.id, job.block, job.dest, true).is_empty());
        assert_eq!(e.stats.wasted, 1);
        assert_eq!(e.hist(), hist, "stale completion not credited");
    }

    #[test]
    fn mean_field_conserves_mass_and_decays_without_repair() {
        let p = MeanFieldParams {
            nodes: 16,
            target: 3,
            blocks: 1024,
            mttf: SimDuration::from_secs(3600),
            mttr: SimDuration::from_secs(60),
            // Repair far slower than the horizon: effectively none.
            block_repair: SimDuration::from_secs(1_000_000),
        };
        let times: Vec<SimTime> = (0..=10)
            .map(|i| SimTime::ZERO + SimDuration::from_secs(i * 3600))
            .collect();
        let xs = mean_field_trajectory(&p, &times);
        assert_eq!(xs.len(), times.len());
        assert_eq!(xs[0], vec![0.0, 0.0, 0.0, 1.0]);
        for x in &xs {
            let mass: f64 = x.iter().sum();
            assert!((mass - 1.0).abs() < 1e-9, "mass conserved: {mass}");
        }
        let m0 = mean_copies(&xs[0]);
        let m_end = mean_copies(xs.last().unwrap());
        assert!(m_end < m0, "copies decay without repair");
        // 10h at 1h MTTF with no repair: essentially everything lost.
        assert!(xs.last().unwrap()[0] > 0.9);
    }

    #[test]
    fn mean_field_fast_repair_holds_target() {
        let p = MeanFieldParams {
            nodes: 32,
            target: 3,
            blocks: 2048,
            mttf: SimDuration::from_secs(86_400),
            mttr: SimDuration::from_secs(600),
            block_repair: SimDuration::from_secs(4),
        };
        let times: Vec<SimTime> = (0..=8)
            .map(|i| SimTime::ZERO + SimDuration::from_secs(i * 86_400))
            .collect();
        let xs = mean_field_trajectory(&p, &times);
        let last = xs.last().unwrap();
        assert!(
            last[3] > 0.99,
            "fast repair keeps blocks at target: {last:?}"
        );
        assert!(last[0] < 1e-6, "no measurable loss: {last:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Fuzz a crash/detect/recover schedule against the engine and
        /// check the standing invariants: no command ever targets a
        /// down node, same inputs give identical command streams, and
        /// once every node is back up and all transfers are driven to
        /// completion every block is either lost or at target.
        #[test]
        fn engine_invariants_under_random_schedules(
            seed in any::<u64>(),
            asus in 5usize..10,
            blocks in 8u64..80,
            r in 2u32..4,
            ops in prop::collection::vec((0u8..3, 0u32..10), 1..40),
        ) {
            let sp = spec(blocks, r);
            fn apply(
                cmds: Vec<RepairCmd>,
                inflight: &mut Vec<(u32, RepairJob)>,
                down: &[bool],
                log: &mut Vec<RepairCmd>,
            ) {
                for c in cmds {
                    log.push(c);
                    let RepairCmd { src, job } = c;
                    prop_assert!(!down[src as usize], "fetch from down node");
                    prop_assert!(!down[job.dest as usize], "repair to down node");
                    inflight.push((src, job));
                }
            }
            let run = |sp: RepairSpec| {
                let mut e = RepairEngine::placed(sp, asus, seed);
                let mut log: Vec<RepairCmd> = Vec::new();
                // Queued (not yet completed) fetches, as the agents
                // would hold them.
                let mut inflight: Vec<(u32, RepairJob)> = Vec::new();
                let mut down: Vec<bool> = vec![false; asus];
                for &(kind, n) in &ops {
                    let asu = n % asus as u32;
                    let cmds = match kind {
                        0 => {
                            if !down[asu as usize] {
                                down[asu as usize] = true;
                                // The crashed agent bounces its queue.
                                let mut cs = e.on_crash(asu);
                                let (dead, live): (Vec<_>, Vec<_>) =
                                    inflight.drain(..).partition(|&(s, _)| s == asu);
                                inflight = live;
                                for (_, j) in dead {
                                    cs.extend(e.on_bounce(j.id, j.block));
                                }
                                cs
                            } else {
                                Vec::new()
                            }
                        }
                        1 => {
                            down[asu as usize] = false;
                            e.on_recover(asu)
                        }
                        _ => e.on_detect(asu),
                    };
                    apply(cmds, &mut inflight, &down, &mut log);
                }
                // Bring the fleet up, flush pending triggers, then
                // drive every transfer to completion.
                for a in 0..asus as u32 {
                    if down[a as usize] {
                        down[a as usize] = false;
                        let cmds = e.on_recover(a);
                        apply(cmds, &mut inflight, &down, &mut log);
                    }
                    let cmds = e.on_detect(a);
                    apply(cmds, &mut inflight, &down, &mut log);
                }
                let mut guard = 0u32;
                while let Some((_, j)) = inflight.pop() {
                    let cmds = e.on_done(j.id, j.block, j.dest, true);
                    apply(cmds, &mut inflight, &down, &mut log);
                    guard += 1;
                    prop_assert!(guard < 100_000, "repair did not converge");
                }
                (e, log)
            };
            let (e1, log1) = run(sp);
            let (e2, log2) = run(sp);
            prop_assert_eq!(log1, log2, "same schedule, same command stream");
            prop_assert_eq!(e1.hist(), e2.hist());
            // Convergence: absent further faults every block is back at
            // target or unrecoverable (zero available copies).
            let h = e1.hist();
            let settled = h[0] + h[r as usize];
            prop_assert_eq!(settled, blocks, "hist {:?}", h);
        }
    }
}
