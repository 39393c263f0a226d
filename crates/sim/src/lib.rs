//! # lmas-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the LMAS emulator (see the workspace `DESIGN.md`).
//! This crate knows nothing about storage or functors; it provides:
//!
//! - [`time`]: virtual nanoseconds ([`SimTime`], [`SimDuration`]);
//! - [`arrival`]: deterministic job-arrival schedules ([`ArrivalSpec`])
//!   for multi-tenant scheduling harnesses;
//! - [`event`]: a totally ordered event calendar;
//! - [`engine`]: an actor loop ([`Simulation`], [`Actor`], [`Ctx`]);
//! - [`fault`]: deterministic fault schedules ([`FaultPlan`]) and retry
//!   backoff ([`BackoffPolicy`]);
//! - [`resource`]: FCFS servers with utilization accounting — the CPUs,
//!   disks and links of an emulated cluster;
//! - [`intern`]: interned resource/metric names (allocation-free stamping);
//! - [`par`]: a conservative partitioned parallel coordinator — the same
//!   virtual time, byte for byte, across worker threads;
//! - [`rng`]: seed-derived deterministic random streams;
//! - [`stats`]: utilization ledgers;
//! - [`trace`]: an optional bounded event trace.
//!
//! Everything is deterministic: given the same seed and the same inputs, a
//! simulation produces bit-identical event orders, timings, and reports.
//!
//! ## Example
//!
//! ```
//! use lmas_sim::{Simulation, Ctx, SimTime, SimDuration, RunOutcome};
//!
//! // Two actors bouncing a token with a 1ms one-way delay.
//! let mut sim: Simulation<u32> = Simulation::new(42);
//! let a = sim.reserve_actor();
//! let b = sim.reserve_actor();
//! sim.install(a, Box::new(move |ctx: &mut Ctx<'_, u32>, n: u32| {
//!     if n > 0 { ctx.send(b, SimDuration::from_millis(1), n - 1); }
//! }));
//! sim.install(b, Box::new(move |ctx: &mut Ctx<'_, u32>, n: u32| {
//!     if n > 0 { ctx.send(a, SimDuration::from_millis(1), n - 1); }
//! }));
//! sim.seed_message(a, SimTime::ZERO, 10);
//! assert_eq!(sim.run(), RunOutcome::Drained);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(10));
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod event;
pub mod fault;
pub mod intern;
pub mod par;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use arrival::{ArrivalEvent, ArrivalSpec};
pub use engine::{Actor, ActorId, Ctx, RunOutcome, Simulation};
pub use event::{EventKey, EventQueue};
pub use fault::{BackoffPolicy, FaultEvent, FaultPlan, TraceError};
pub use intern::{intern, Name};
pub use par::{run_partitioned, LogHist, ParOps, ParOutcome, PartitionWorker};
pub use resource::{Grant, Resource};
pub use rng::DetRng;
pub use stats::UtilizationLedger;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry};
