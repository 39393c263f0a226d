//! # lmas-plan — the load-management planner
//!
//! The paper's thesis is that declared functor costs let *the system*
//! decide placement, replication, and routing (Sections 3.3, 8). This
//! crate is that decision-maker, offline half: given a dataflow graph,
//! per-stage declared [`Work`](lmas_core::Work), functor memory
//! contracts, and the cluster model (H, D, c, disk/link rates), it
//!
//! 1. plans one candidate per replication degree the caller
//!    enumerates (a shared [`Planner`]; DSM-Sort's sweep is
//!    `lmas_sort::planner::sweep_pass1`),
//! 2. scores host/ASU assignments with an analytic bottleneck-makespan
//!    [`estimate`](estimate::estimate) (pipelined fill/busy/drain
//!    critical path, tightened by per-node CPU/disk/link bounds),
//! 3. refines greedily with deterministic local search (migrate and
//!    swap moves, first improvement, no RNG), and
//! 4. emits a validated [`Placement`](lmas_core::Placement) in a
//!    [`PlanOutcome`] — the assignment, its [`Estimate`], and the
//!    search's counters — whose
//!    [`render_json`](PlanOutcome::render_json) writes the
//!    machine-readable account on demand.
//!
//! The same [`ClusterShape`] carries the closed-form pipeline rates that
//! pick DSM-Sort's distribute order α and merge split γ₁·γ₂ (Section
//! 4.3): [`ClusterShape::pick_alpha`], [`ClusterShape::pick_gamma_split_bounded`].
//!
//! The *runtime* half — the feedback balancer that re-weights replica
//! routing from observed queue depths — lives in the emulator
//! (`lmas-emulator::balance`), consuming the
//! [`Router::pick_routed`](lmas_core::Router::pick_routed) weight
//! channel this planner's placements are scored against.
//!
//! Entry points: [`plan`] / [`plan_residual`] on an explicit
//! [`PlanSpec`], or a reused [`Planner`] when planning many.

#![warn(missing_docs)]

mod adapt;
pub mod estimate;
pub mod model;
#[cfg(test)]
mod reference;
pub mod report;
pub mod residual;
pub mod search;

pub use estimate::{estimate, estimate_residual, Bottleneck, Estimate, StageResource};
pub use model::{ClusterShape, PlanEdge, PlanError, PlanSpec, StageSpec};
pub use report::CodedPoint;
pub use residual::ResidualCapacity;
pub use search::{plan, plan_residual, PlanOutcome, Planner};
