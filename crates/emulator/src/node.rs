//! Emulated nodes: a CPU, a NIC, a storage substrate, and a memory
//! budget.
//!
//! Hosts and ASUs share this shape; they differ in CPU speed (`1` vs
//! `1/c`), memory budget, and role. CPU and NIC are FCFS resources from
//! `lmas-sim`, so contention between functor instances co-located on one
//! node emerges from the resource queues rather than from bespoke logic.
//!
//! Storage is a [`StripedDisk`] (one spindle by default; `d` per ASU
//! when the [`StorageSpec`](lmas_storage::StorageSpec) stripes) optionally fronted by a
//! [`BufferPool`] and a [`DiskScheduler`]. With the plain default spec
//! every call delegates straight to the single underlying disk timeline,
//! byte-identical to the pre-substrate node. With the pool enabled,
//! reads and sink writes become block-addressed: streams are laid out on
//! sequential block extents (reads from a low cursor, writes from a high
//! one, so the regions never collide) and every access goes through the
//! pool's hit/miss, eviction, and write-behind machinery.

use crate::config::ClusterConfig;
use crate::fault::NodeHealth;
use lmas_core::{CostModel, NodeId, Work};
use lmas_sim::{Grant, Resource, SimDuration, SimTime};
use lmas_storage::{
    BteStats, BufferPool, DiskScheduler, IoReq, PoolParams, PoolStats, StripedDisk,
};

/// First block of the sink-write extent; far above any read extent so
/// the two block ranges never alias.
const WRITE_BASE_BLOCK: u64 = 1 << 40;

/// Buffer-pool shards per node (when the pool is on).
const POOL_SHARDS: usize = 4;

/// NIC serialization time for `bytes` at `rate` bytes/sec: the one
/// formula both NIC charges go through.
fn nic_service(bytes: u64, rate: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / rate)
}

/// The storage stack of one node: disk array, optional pool, optional
/// scheduler, plus the block cursors that lay streams onto extents.
#[derive(Debug)]
struct NodeStore {
    striped: StripedDisk,
    pool: Option<BufferPool>,
    sched: Option<DiskScheduler>,
    block_bytes: u64,
    /// Next unassigned block of the source-read extent.
    read_cursor: u64,
    /// Next unassigned block of the sink-write extent.
    write_cursor: u64,
}

impl NodeStore {
    /// Lay `bytes` onto the next blocks of an extent; returns the
    /// `(block, bytes)` run (the tail block may be partial).
    fn alloc_run(cursor: &mut u64, bytes: u64, bb: u64) -> Vec<(u64, u64)> {
        let nblocks = bytes.div_ceil(bb);
        let first = *cursor;
        *cursor += nblocks;
        (0..nblocks)
            .map(|i| {
                let b = if i + 1 == nblocks { bytes - i * bb } else { bb };
                (first + i, b)
            })
            .collect()
    }

    /// Expand a (possibly merged) scheduler request back into a
    /// per-block run. A merged request may cover interior partial-tail
    /// blocks, so the exact per-block byte layout is gone; front-load
    /// the payload over the block range instead (totals stay exact,
    /// per-spindle attribution within the run is approximate).
    fn expand(req: &IoReq, bb: u64) -> Vec<(u64, u64)> {
        let mut rem = req.bytes;
        let mut run = Vec::with_capacity(req.blocks as usize);
        for i in 0..req.blocks {
            let b = rem.min(bb);
            rem -= b;
            if b > 0 {
                run.push((req.first_block + i, b));
            }
        }
        run
    }

    /// Drain the scheduler window through the pool (write-behind) or
    /// straight to the media.
    fn drain_sched(&mut self, now: SimTime) {
        let Some(sched) = self.sched.as_mut() else { return };
        if sched.pending() == 0 {
            return;
        }
        let pool = &mut self.pool;
        let striped = &mut self.striped;
        let bb = self.block_bytes;
        sched.drain_with(|req| {
            let run = NodeStore::expand(req, bb);
            match pool {
                Some(p) => {
                    let mut t = now;
                    for &(b, bytes) in &run {
                        t = t.max(p.write(now, b, bytes, striped));
                    }
                    t
                }
                None => striped.write_blocks(now, &run),
            }
        });
    }
}

/// The simulated devices of one node.
#[derive(Debug)]
pub struct NodeRes {
    /// Which node this is.
    pub id: NodeId,
    /// Relative CPU speed (host = 1.0, ASU = 1/c).
    pub speed: f64,
    /// Memory budget for functor state and buffers.
    pub mem_bytes: usize,
    cpu: Resource,
    nic: Resource,
    store: NodeStore,
    cost: CostModel,
    records_processed: u64,
    peak_state_bytes: usize,
    /// Healthy-state speed, restored on recovery.
    base_speed: f64,
    /// Healthy-state disk rate, restored on recovery.
    base_disk_rate: f64,
    health: NodeHealth,
    /// Payload bytes serialized onto the wire by this node: the measured
    /// shuffle-byte counter the coded distribute mode is judged against.
    nic_bytes_tx: u64,
}

impl NodeRes {
    /// Build the node `id` described by `cfg`.
    pub fn new(id: NodeId, cfg: &ClusterConfig) -> NodeRes {
        // Competing tenants steal a fraction of each ASU's CPU and disk
        // (hosts are dedicated, Section 2.2): model as derated devices.
        // Multi-disk striping is an ASU property (the brick aggregates
        // spindles); hosts keep one disk.
        let spec = cfg.storage;
        let (speed, mem, disk, disks) = match id {
            NodeId::Host(_) => (cfg.host_speed(), cfg.host_mem_bytes, cfg.disk, 1),
            NodeId::Asu(_) => {
                let mut disk = cfg.disk;
                disk.rate_bytes_per_sec *= 1.0 - cfg.background_asu_disk;
                (
                    cfg.asu_speed() * (1.0 - cfg.background_asu_cpu),
                    cfg.asu_mem_bytes,
                    disk,
                    spec.disks,
                )
            }
        };
        let store = NodeStore {
            striped: StripedDisk::new(
                disk,
                disks,
                spec.blocks_per_stripe,
                spec.block_bytes,
                cfg.util_bin,
            ),
            pool: (spec.pool_frames > 0).then(|| {
                BufferPool::new(PoolParams {
                    frames: spec.pool_frames,
                    shards: POOL_SHARDS,
                })
            }),
            sched: (spec.sched_window > 1).then(|| DiskScheduler::new(spec.sched_window)),
            block_bytes: spec.block_bytes,
            read_cursor: 0,
            write_cursor: WRITE_BASE_BLOCK,
        };
        NodeRes {
            id,
            speed,
            mem_bytes: mem,
            cpu: Resource::new(format!("{id}.cpu"), cfg.util_bin),
            nic: Resource::new(format!("{id}.nic"), cfg.util_bin),
            store,
            cost: cfg.cost,
            records_processed: 0,
            peak_state_bytes: 0,
            base_speed: speed,
            base_disk_rate: disk.rate_bytes_per_sec,
            health: NodeHealth::Up,
            nic_bytes_tx: 0,
        }
    }

    /// Change this node's health (fault injection). `Up` restores the
    /// configured speeds, `Degraded` scales CPU and disk by the given
    /// factors, `Down` leaves the devices untouched (nothing runs on a
    /// down node anyway — the runtime stops dispatching to it).
    pub fn set_health(&mut self, health: NodeHealth) {
        self.health = health;
        match health {
            NodeHealth::Up | NodeHealth::Down => {
                self.speed = self.base_speed;
                self.store.striped.set_rate(self.base_disk_rate);
            }
            NodeHealth::Degraded { cpu_factor, disk_factor } => {
                self.speed = self.base_speed * cpu_factor;
                self.store.striped.set_rate(self.base_disk_rate * disk_factor);
            }
        }
    }

    /// Current health.
    pub fn health(&self) -> NodeHealth {
        self.health
    }

    /// Is the node crashed?
    pub fn is_down(&self) -> bool {
        self.health == NodeHealth::Down
    }

    /// Book CPU time for `work` at `now`; returns the service window.
    pub fn charge_cpu(&mut self, now: SimTime, work: Work) -> Grant {
        let service = self.cost.charge(work, self.speed);
        self.cpu.acquire(now, service)
    }

    /// Book NIC serialization for `bytes` at `now`.
    pub fn charge_nic(&mut self, now: SimTime, bytes: u64, link_rate: f64) -> Grant {
        let service = nic_service(bytes, link_rate);
        self.nic_bytes_tx += bytes;
        self.nic.acquire(now, service)
    }

    /// Book `count` back-to-back NIC serializations of `bytes` each at
    /// `now` in one batched ledger update; returns the combined window.
    pub fn charge_nic_batch(
        &mut self,
        now: SimTime,
        bytes: u64,
        link_rate: f64,
        count: u64,
    ) -> Grant {
        let service = nic_service(bytes, link_rate);
        self.nic_bytes_tx += bytes * count;
        self.nic.acquire_batch(now, count, service)
    }

    /// Sequential disk read of `bytes`; returns data-ready time.
    ///
    /// Without a pool this is a plain striped-stream read (one spindle =
    /// the legacy model, verbatim). With a pool, the stream is laid onto
    /// the node's read extent block by block and each block goes through
    /// the pool (misses charge the media; the per-request overhead is
    /// then honestly paid per block).
    pub fn disk_read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        if self.store.pool.is_none() {
            return self.store.striped.read(now, bytes);
        }
        let run = NodeStore::alloc_run(&mut self.store.read_cursor, bytes, self.store.block_bytes);
        let pool = self.store.pool.as_mut().expect("checked above");
        let mut ready = now;
        for &(b, bb) in &run {
            let (r, _hit) = pool.read(now, b, bb, &mut self.store.striped);
            ready = ready.max(r);
        }
        ready
    }

    /// Sequential disk write of `bytes`; returns caller-proceed time.
    pub fn disk_write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.store.striped.write(now, bytes)
    }

    /// Sink write of `bytes` from the output stream `tag` (one tag per
    /// functor instance). The plain spec charges the media directly;
    /// otherwise the stream is laid onto the node's write extent and
    /// staged through the scheduler window (same-tag sequential runs
    /// coalesce on drain) and/or the pool's write-behind.
    pub fn disk_write_sink(&mut self, now: SimTime, tag: u64, bytes: u64) -> SimTime {
        let store = &mut self.store;
        if store.pool.is_none() && store.sched.is_none() {
            return store.striped.write(now, bytes);
        }
        let run = NodeStore::alloc_run(&mut store.write_cursor, bytes, store.block_bytes);
        let Some(&(first, _)) = run.first() else {
            return now; // zero-byte packet: nothing to stage
        };
        if let Some(sched) = store.sched.as_mut() {
            sched.submit(tag, first, run.len() as u64, bytes, true);
            if sched.is_full() {
                store.drain_sched(now);
            }
            now
        } else {
            let pool = store.pool.as_mut().expect("pool or sched is present");
            let mut t = now;
            for &(b, bb) in &run {
                t = t.max(pool.write(now, b, bb, &mut store.striped));
            }
            t
        }
    }

    /// Flush everything staged in the storage stack (scheduler residue,
    /// then dirty pool frames) at `now` and return when the media
    /// quiesces. A no-op returning the plain quiesce time for the
    /// default spec.
    pub fn storage_drain(&mut self, now: SimTime) -> SimTime {
        self.store.drain_sched(now);
        if let Some(pool) = self.store.pool.as_mut() {
            pool.flush(now, &mut self.store.striped);
        }
        self.store.striped.quiesce_time()
    }

    /// Record that `n` records were processed here (progress metric).
    pub fn note_records(&mut self, n: u64) {
        self.records_processed += n;
    }

    /// Track the largest functor-state footprint observed on this node.
    pub fn note_state_bytes(&mut self, bytes: usize) {
        self.peak_state_bytes = self.peak_state_bytes.max(bytes);
    }

    /// Records processed on this node.
    pub fn records_processed(&self) -> u64 {
        self.records_processed
    }

    /// Peak observed functor state.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_state_bytes
    }

    /// CPU utilization series over `[0, horizon]`.
    pub fn cpu_utilization(&self, horizon: SimTime) -> Vec<f64> {
        self.cpu.utilization_series(horizon)
    }

    /// Mean CPU utilization over `[0, horizon]`.
    pub fn mean_cpu_utilization(&self, horizon: SimTime) -> f64 {
        self.cpu.mean_utilization(horizon)
    }

    /// Total CPU busy time.
    pub fn cpu_busy(&self) -> SimDuration {
        self.cpu.total_busy()
    }

    /// When the CPU queue drains.
    pub fn cpu_free_at(&self) -> SimTime {
        self.cpu.next_free()
    }

    /// When the disk media quiesces (all spindles).
    pub fn disk_quiesce(&self) -> SimTime {
        self.store.striped.quiesce_time()
    }

    /// Disk counters: (reads, writes, bytes_read, bytes_written),
    /// aggregated across spindles.
    pub fn disk_counters(&self) -> (u64, u64, u64, u64) {
        self.store.striped.counters()
    }

    /// Per-spindle transfer counters, in disk order.
    pub fn per_disk_stats(&self) -> Vec<BteStats> {
        self.store.striped.per_disk_stats()
    }

    /// Per-spindle media busy time, in disk order.
    pub fn per_disk_busy(&self) -> Vec<SimDuration> {
        self.store.striped.per_disk_busy()
    }

    /// Buffer-pool counters (all zero when the pool is disabled).
    pub fn pool_stats(&self) -> PoolStats {
        self.store
            .pool
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// NIC busy time.
    pub fn nic_busy(&self) -> SimDuration {
        self.nic.total_busy()
    }

    /// Payload bytes this node has serialized onto the wire.
    pub fn nic_bytes_tx(&self) -> u64 {
        self.nic_bytes_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig::era_2002(1, 2, 8.0)
    }

    #[test]
    fn host_and_asu_speeds_differ_by_c() {
        let h = NodeRes::new(NodeId::Host(0), &cfg());
        let a = NodeRes::new(NodeId::Asu(0), &cfg());
        assert_eq!(h.speed, 1.0);
        assert!((a.speed - 0.125).abs() < 1e-12);
        assert!(h.mem_bytes > a.mem_bytes);
    }

    #[test]
    fn cpu_charge_is_c_times_slower_on_asu() {
        let c = cfg();
        let mut h = NodeRes::new(NodeId::Host(0), &c);
        let mut a = NodeRes::new(NodeId::Asu(0), &c);
        let w = Work::compares(1000);
        let gh = h.charge_cpu(SimTime::ZERO, w);
        let ga = a.charge_cpu(SimTime::ZERO, w);
        let th = gh.end.as_nanos() as f64;
        let ta = ga.end.as_nanos() as f64;
        assert!((ta / th - 8.0).abs() < 1e-9, "ratio {}", ta / th);
    }

    #[test]
    fn cpu_serializes_colocated_work() {
        let mut h = NodeRes::new(NodeId::Host(0), &cfg());
        let g1 = h.charge_cpu(SimTime::ZERO, Work::compares(100));
        let g2 = h.charge_cpu(SimTime::ZERO, Work::compares(100));
        assert_eq!(g2.start, g1.end);
        assert!(h.cpu_busy() > SimDuration::ZERO);
    }

    #[test]
    fn nic_charge_scales_with_bytes() {
        let mut h = NodeRes::new(NodeId::Host(0), &cfg());
        let g = h.charge_nic(SimTime::ZERO, 1_000_000, 1.0e9);
        assert_eq!(g.end.since(g.start), SimDuration::from_millis(1));
    }

    #[test]
    fn background_load_slows_asu_devices() {
        let quiet = ClusterConfig::era_2002(1, 1, 8.0);
        let busy = quiet.with_background(0.5, 0.5);
        let mut aq = NodeRes::new(NodeId::Asu(0), &quiet);
        let mut ab = NodeRes::new(NodeId::Asu(0), &busy);
        let w = Work::compares(1000);
        let tq = aq.charge_cpu(SimTime::ZERO, w).end.as_nanos() as f64;
        let tb = ab.charge_cpu(SimTime::ZERO, w).end.as_nanos() as f64;
        assert!((tb / tq - 2.0).abs() < 1e-9, "half the CPU → twice the time");
        let rq = aq.disk_read(SimTime::ZERO, 1_000_000).as_nanos() as f64;
        let rb = ab.disk_read(SimTime::ZERO, 1_000_000).as_nanos() as f64;
        assert!((rb / rq - 2.0).abs() < 1e-6, "half the disk → twice the time");
        // Hosts unaffected.
        let mut hq = NodeRes::new(NodeId::Host(0), &quiet);
        let mut hb = NodeRes::new(NodeId::Host(0), &busy);
        assert_eq!(
            hq.charge_cpu(SimTime::ZERO, w).end,
            hb.charge_cpu(SimTime::ZERO, w).end
        );
    }

    #[test]
    fn degrade_scales_devices_and_recovery_restores_them() {
        let mut h = NodeRes::new(NodeId::Host(0), &cfg());
        let w = Work::compares(1000);
        let t_up = h.charge_cpu(SimTime::ZERO, w).end.since(SimTime::ZERO);
        h.set_health(NodeHealth::Degraded { cpu_factor: 0.5, disk_factor: 0.25 });
        assert!(!h.is_down());
        let g = h.charge_cpu(h.cpu_free_at(), w);
        let t_deg = g.end.since(g.start);
        assert!(
            (t_deg.as_secs_f64() / t_up.as_secs_f64() - 2.0).abs() < 1e-9,
            "half the CPU → twice the time"
        );
        h.set_health(NodeHealth::Up);
        let g = h.charge_cpu(h.cpu_free_at(), w);
        assert_eq!(g.end.since(g.start), t_up, "recovery restores full speed");
        h.set_health(NodeHealth::Down);
        assert!(h.is_down());
        assert_eq!(h.health(), NodeHealth::Down);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = NodeRes::new(NodeId::Asu(0), &cfg());
        a.note_records(10);
        a.note_records(5);
        a.note_state_bytes(100);
        a.note_state_bytes(50);
        assert_eq!(a.records_processed(), 15);
        assert_eq!(a.peak_state_bytes(), 100);
        a.disk_write(SimTime::ZERO, 4096);
        let (_, w, _, bw) = a.disk_counters();
        assert_eq!((w, bw), (1, 4096));
    }
}
