//! # lmas-core — the load-managed active storage programming model
//!
//! The paper's primary contribution (HPDC 2002, Wickremesinghe–Chase–
//! Vitter): applications are specified as networks of bounded-cost
//! **functors** over containers of fixed-size records, exposing
//! parallelism, ordering constraints, and computation costs so the
//! *system* can map work onto hosts and Active Storage Units (ASUs) and
//! balance load dynamically.
//!
//! - [`record`]: fixed-size records ([`Rec128`]: the paper's 128-byte /
//!   4-byte-key experimental record) and workload key distributions;
//! - [`container`]: packets (indivisible record groups); sets and
//!   streams are the [`EdgeKind`] contracts packets travel under;
//! - [`functor`]: the [`Functor`] contract and the standard library
//!   (map, filter, tally, distribute, block-sort, merge);
//! - [`kernels`]: verified in-memory kernels with comparison audits;
//! - [`graph`]: dataflow graphs of replicated stages;
//! - [`routing`]: static / round-robin / simple-randomization /
//!   load-aware routing across replicated instances;
//! - [`placement`]: the functor-instance → node assignment, validated
//!   against ASU memory bounds and functor eligibility;
//! - [`cost`]: work vectors and the calibrated cost model.
//!
//! Execution lives in `lmas-emulator`, which compiles a
//! ([`FlowGraph`], [`Placement`]) pair onto an emulated cluster. The
//! cluster model that prices declared work — the analytic pipeline
//! rates that pick α and the γ split (the "adaptive" series of
//! Figure 9) and the placement planner — is `lmas-plan`'s
//! `ClusterShape`.

#![warn(missing_docs)]

pub mod container;
pub mod cost;
pub mod functor;
pub mod graph;
pub mod kernels;
pub mod placement;
pub mod record;
pub mod routing;

pub use container::{packetize, Packet};
pub use cost::{log2_ceil, CostModel, Work};
pub use functor::{Emit, Functor, FunctorKind};
pub use graph::{Edge, EdgeKind, FlowGraph, GraphError, RouteScope, Stage, StageFactory};
pub use placement::{NodeId, Placement, PlacementError, StageId};
pub use record::{generate_rec128, generate_rec8, KeyDist, Rec128, Rec8, Record};
pub use routing::{Router, RoutingPolicy};
