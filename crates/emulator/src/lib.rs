//! # lmas-emulator — timing-accurate emulation of active storage clusters
//!
//! Implements the paper's Section 5 methodology: application functors run
//! for real while an embedded discrete-event simulator (from `lmas-sim`)
//! determines the delays their computation, disk I/O, and communication
//! would impose on an emulated cluster of `H` hosts and `D` ASUs with CPU
//! ratio `c`.
//!
//! - [`config`]: cluster parameters with 2002-era defaults;
//! - [`node`]: per-node CPU/NIC/disk resources;
//! - [`runtime`]: compiles a (`FlowGraph`, `Placement`) pair into
//!   simulation actors and runs it ([`run_job`],
//!   [`run_job_with_faults`]) — entry points, errors and report types in
//!   `runtime/mod.rs`, the one builder in `runtime/build.rs`, and one
//!   file per actor protocol (`msg`, `instance`, `fault_ctl`,
//!   `balancer`, `repair_actors`, `sched_actor`);
//! - [`fault`]: deterministic fault injection — crash/degrade/lossy
//!   nodes, heartbeat failure detection, retrying delivery;
//! - [`balance`]: feedback-driven runtime load balancing — periodic
//!   virtual-time sampling of queue depths and CPU backlog that
//!   re-weights replica routing (off by default);
//! - [`multi`]: multi-tenant scheduling — several jobs merged onto one
//!   cluster, gated by a pluggable admission/fairness policy
//!   ([`run_jobs`]);
//! - [`metrics`], [`report`]: instrumentation and rendering.

#![warn(missing_docs)]

pub mod balance;
pub mod config;
pub mod fault;
pub mod metrics;
pub mod multi;
pub mod node;
pub mod repair;
pub mod report;
pub mod runtime;

pub use balance::BalanceSpec;
pub use config::ClusterConfig;
pub use fault::{asu_index, node_index, FaultSpec, FaultStats, NodeHealth};
pub use metrics::{QueueStat, StageGauge, StageQueueStats, StageUsage};
pub use multi::{
    run_jobs, GateDecision, JobStats, MultiJobReport, SchedEvent, SchedEventKind, SchedGate,
    TenantJob,
};
pub use node::NodeRes;
pub use repair::{
    mean_copies, mean_field_trajectory, MeanFieldParams, RepairSample, RepairSpec, RepairStats,
};
// Storage counter types re-exported from their single source of truth in
// `lmas-storage` (node reports embed them).
pub use lmas_storage::{BteStats, PoolStats, StorageSpec};
pub use report::render_summary;
pub use runtime::{
    run_job, run_job_with_faults, EmulationReport, Job, JobError, NodeReport, ParRunStats,
};
