//! Cluster configuration: the parameters of the emulated system.
//!
//! Section 5: "The parameters to the emulator include the number of hosts
//! and ASUs and their CPU speeds relative to the emulation platform",
//! plus disk I/O properties and network latency and bandwidth. Defaults
//! correspond to the paper's testbed era: a 750 MHz P-III-class host,
//! ASUs at `1/c` of host speed with `c ∈ {4, 8}`, ASU storage "bricks"
//! aggregating several ~25 MB/s spindles behind one port (~100 MB/s),
//! and a SAN whose links are fast enough that "the processor saturates
//! before the individual network links".
//!
//! `ClusterConfig` describes the *healthy* cluster; fault-injection
//! knobs (the plan, heartbeat cadence, detection timeout, and delivery
//! retry backoff) live in [`FaultSpec`](crate::fault::FaultSpec), which
//! is passed separately to
//! [`run_job_with_faults`](crate::run_job_with_faults).

use crate::balance::BalanceSpec;
use lmas_core::CostModel;
use lmas_sim::SimDuration;
use lmas_storage::{DiskParams, StorageSpec};

/// Full parameter set of an emulated active storage cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of hosts, H.
    pub hosts: usize,
    /// Number of ASUs, D.
    pub asus: usize,
    /// Host-to-ASU CPU power ratio, c (ASU speed = host speed / c).
    pub cpu_ratio_c: f64,
    /// Cost model converting declared functor work into CPU time.
    pub cost: CostModel,
    /// Per-node disk timing parameters (per spindle when striping).
    pub disk: DiskParams,
    /// Storage substrate: spindles per ASU, striping, buffer pool,
    /// scheduler, and read-ahead. The default is the plain single-disk
    /// model (byte-identical to the pre-substrate emulator).
    pub storage: StorageSpec,
    /// Host↔ASU link bandwidth, bytes per second (per node NIC).
    pub link_bytes_per_sec: f64,
    /// One-way network latency.
    pub link_latency: SimDuration,
    /// Fixed per-frame NIC bytes charged on every transfer (headers,
    /// preamble). Zero by default. Together with `link_latency` it sets
    /// the *minimum cross-node delay* the partitioned engine uses as its
    /// lookahead, so zero-latency links with a positive per-hop charge
    /// still parallelize.
    pub nic_frame_overhead_bytes: u64,
    /// ASU memory available for functor state and buffers.
    pub asu_mem_bytes: usize,
    /// Host memory available for functor state and buffers.
    pub host_mem_bytes: usize,
    /// Bin width for utilization time series (Figure 10 resolution).
    pub util_bin: SimDuration,
    /// Master seed for all randomized routing in this run.
    pub seed: u64,
    /// Fraction of each ASU's CPU consumed by competing tenants
    /// (Section 1: "network storage is a shared resource"). 0 = idle.
    pub background_asu_cpu: f64,
    /// Fraction of each ASU's disk bandwidth consumed by competing
    /// tenants. 0 = idle.
    pub background_asu_disk: f64,
    /// Ring-buffer capacity of the run's event trace; 0 disables tracing
    /// entirely (the dispatch loop then allocates no trace strings —
    /// see [`lmas_sim::Trace::record_with`]).
    pub trace_capacity: usize,
    /// Runtime load balancer: periodic queue-depth sampling that
    /// re-weights replica routing. Disabled by default (zero period),
    /// which keeps runs byte-identical to the balancer-free runtime.
    pub balance: BalanceSpec,
    /// Worker threads for the emulation itself. `1` (the default) runs
    /// the classic sequential engine. Larger values partition the actor
    /// graph across threads under conservative lookahead synchronization
    /// (see `lmas_sim::par`); virtual time stays byte-identical, wall
    /// clock shrinks. Fault plans and the balancer run partitioned too;
    /// the four shapes the partitioned engine cannot preserve exactly (a
    /// scheduler-gated multi-tenant run, backlog-sensitive routing, zero
    /// cross-node delay, `fail_fast` fault specs) fall back to the
    /// sequential path, recording the reason (`"scheduler"`,
    /// `"backlog routing"`, `"zero latency"`, `"fault plan"`) in
    /// `EmulationReport::par_fallback`.
    pub threads: usize,
}

impl ClusterConfig {
    /// A 2002-era cluster of `hosts` hosts and `asus` ASUs at ratio `c`.
    pub fn era_2002(hosts: usize, asus: usize, cpu_ratio_c: f64) -> ClusterConfig {
        assert!(hosts > 0, "need at least one host");
        assert!(asus > 0, "need at least one ASU");
        assert!(cpu_ratio_c >= 1.0, "ASUs are not faster than hosts");
        ClusterConfig {
            hosts,
            asus,
            cpu_ratio_c,
            cost: CostModel::p3_750mhz(),
            disk: DiskParams::asu_brick_2002(),
            storage: StorageSpec::default(),
            // Gigabit-class SAN per node; fast enough that CPUs, not
            // links, saturate (the paper's stated network assumption).
            link_bytes_per_sec: 1.0e9,
            link_latency: SimDuration::from_micros(50),
            nic_frame_overhead_bytes: 0,
            asu_mem_bytes: 32 << 20,
            host_mem_bytes: 512 << 20,
            util_bin: SimDuration::from_millis(100),
            seed: 0x1A5,
            background_asu_cpu: 0.0,
            background_asu_disk: 0.0,
            trace_capacity: 0,
            balance: BalanceSpec::disabled(),
            threads: 1,
        }
    }

    /// This cluster emulated on `n` worker threads. Virtual time is
    /// byte-identical to `threads == 1`; only wall-clock time changes.
    pub fn with_threads(mut self, n: usize) -> ClusterConfig {
        assert!(n >= 1, "need at least one worker thread");
        self.threads = n;
        self
    }

    /// This cluster with `bytes` of per-frame NIC overhead charged on
    /// every transfer (and folded into the parallel engine's lookahead).
    pub fn with_nic_frame_overhead(mut self, bytes: u64) -> ClusterConfig {
        self.nic_frame_overhead_bytes = bytes;
        self
    }

    /// This cluster with the runtime load balancer enabled per `spec`
    /// (see [`BalanceSpec::every`] for sensible defaults).
    pub fn with_balancer(mut self, spec: BalanceSpec) -> ClusterConfig {
        self.balance = spec;
        self
    }

    /// This cluster with an event trace retaining the `capacity`
    /// most-recent entries (rendered into the run report).
    pub fn with_trace(mut self, capacity: usize) -> ClusterConfig {
        self.trace_capacity = capacity;
        self
    }

    /// This cluster with the given storage substrate (striping, buffer
    /// pool, scheduler, read-ahead). `cfg.disk` then describes one
    /// spindle, and an ASU's aggregate bandwidth scales with
    /// `storage.disks`.
    pub fn with_storage(mut self, storage: StorageSpec) -> ClusterConfig {
        self.storage = storage;
        self
    }

    /// This cluster with competing tenants consuming `cpu` of each ASU's
    /// processor and `disk` of each ASU's bandwidth (both in [0, 1)).
    /// Hosts are dedicated to the application (Section 2.2) and stay
    /// uncontended.
    pub fn with_background(mut self, cpu: f64, disk: f64) -> ClusterConfig {
        assert!((0.0..1.0).contains(&cpu), "cpu fraction in [0,1)");
        assert!((0.0..1.0).contains(&disk), "disk fraction in [0,1)");
        self.background_asu_cpu = cpu;
        self.background_asu_disk = disk;
        self
    }

    /// The *effective* host/ASU ratio after background interference: an
    /// ASU at 1/c speed with fraction `b` stolen behaves like 1/(c/(1-b)).
    pub fn effective_cpu_ratio(&self) -> f64 {
        self.cpu_ratio_c / (1.0 - self.background_asu_cpu)
    }

    /// Relative CPU speed of a host (1.0 by definition).
    pub fn host_speed(&self) -> f64 {
        1.0
    }

    /// Relative CPU speed of an ASU (`1/c`).
    pub fn asu_speed(&self) -> f64 {
        1.0 / self.cpu_ratio_c
    }

    /// Total nodes (hosts + ASUs).
    pub fn total_nodes(&self) -> usize {
        self.hosts + self.asus
    }

    /// The analytic pipeline model for this cluster (drives adaptation).
    /// Background interference is folded into the effective CPU ratio and
    /// disk rate, so the configurator adapts to shared-ASU conditions.
    pub fn pipeline_model(&self, record_size: usize) -> lmas_core::PipelineModel {
        lmas_core::PipelineModel {
            cost: self.cost,
            hosts: self.hosts,
            asus: self.asus,
            cpu_ratio_c: self.effective_cpu_ratio(),
            // Aggregate ASU bandwidth: per-spindle rate × spindles.
            disk_rate: self.disk.rate_bytes_per_sec
                * (1.0 - self.background_asu_disk)
                * self.storage.disks as f64,
            link_rate: self.link_bytes_per_sec,
            record_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ClusterConfig::era_2002(2, 16, 8.0);
        assert_eq!(c.total_nodes(), 18);
        assert_eq!(c.host_speed(), 1.0);
        assert!((c.asu_speed() - 0.125).abs() < 1e-12);
        assert!(c.link_bytes_per_sec > c.disk.rate_bytes_per_sec);
    }

    #[test]
    fn pipeline_model_mirrors_config() {
        let c = ClusterConfig::era_2002(1, 4, 4.0);
        let m = c.pipeline_model(128);
        assert_eq!(m.hosts, 1);
        assert_eq!(m.asus, 4);
        assert_eq!(m.record_size, 128);
        assert!((m.cpu_ratio_c - 4.0).abs() < 1e-12);
    }

    #[test]
    fn background_interference_derates_asus_only() {
        let c = ClusterConfig::era_2002(1, 4, 8.0).with_background(0.5, 0.25);
        assert!((c.effective_cpu_ratio() - 16.0).abs() < 1e-12);
        let m = c.pipeline_model(128);
        assert!((m.cpu_ratio_c - 16.0).abs() < 1e-12);
        assert!((m.disk_rate - 75.0e6).abs() < 1.0);
        // Hosts unaffected.
        assert_eq!(c.host_speed(), 1.0);
    }

    #[test]
    #[should_panic(expected = "cpu fraction")]
    fn full_background_rejected() {
        ClusterConfig::era_2002(1, 1, 8.0).with_background(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one ASU")]
    fn zero_asus_rejected() {
        ClusterConfig::era_2002(1, 0, 8.0);
    }

    #[test]
    #[should_panic(expected = "not faster")]
    fn sub_one_ratio_rejected() {
        ClusterConfig::era_2002(1, 1, 0.5);
    }
}
