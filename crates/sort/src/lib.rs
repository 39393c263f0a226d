//! # lmas-sort — DSM-Sort on load-managed active storage
//!
//! The paper's Section 4.3 application: a hybrid distribute/sort/merge
//! external sort whose (α, β, γ₁, γ₂) knobs move comparison work between
//! ASUs and hosts, built from the `lmas-core` functor library and run on
//! the `lmas-emulator` cluster.
//!
//! - [`config`]: the knobs, their validation, and the load modes of
//!   Figure 10 (static subset assignment vs SR spreading);
//! - [`functors`]: the merge-phase kernels (ASU γ₁-merge, host γ₂-merge);
//! - [`dsm`]: the one sort driver behind [`run_dsm_sort`],
//!   [`run_dsm_sort_multipass`] and [`run_dsm_sort_faulty`], and the
//!   passes it runs ([`run_pass1`], [`run_pass2`]);
//! - [`planner`]: the passes as planner specs, the Auto-mode and coded
//!   sweeps, and [`Pass1Planner`], the reusable per-job-kind planner;
//! - [`baseline`]: the passive-storage comparison of Figure 9;
//! - [`adaptive`]: model-driven (α, γ₁, γ₂) selection;
//! - [`skew`]: workload layouts, incl. Figure 10's half-uniform/half-
//!   exponential input;
//! - [`fault`]: tag-diff repair of the records a fault plan lost
//!   ([`lost_records`]);
//! - [`verify`]: output sortedness, permutation, and canonical
//!   byte-equality checks.

#![warn(missing_docs)]

pub mod adaptive;
pub mod baseline;
pub mod config;
pub mod dsm;
pub mod fault;
pub mod functors;
pub mod planner;
pub mod skew;
pub mod verify;

pub use adaptive::{adaptive_alpha, adaptive_config, ALPHA_CANDIDATES};
pub use baseline::{pass1_speedup, run_pass1_baseline};
pub use config::{DsmConfig, DsmConfigError, LoadMode};
pub use dsm::{
    build_pass1_job, build_pass1_job_placed, choose_splitters, run_dsm_sort,
    run_dsm_sort_multipass, run_pass1, run_pass1_placed, run_pass1_with, run_pass2,
    split_across_asus, split_into_packets, AsuInput, DsmError, DsmOutcome, DsmPlanInfo, Pass1Job,
    Pass1Result, Pass2Result,
};
pub use fault::{lost_records, run_dsm_sort_faulty};
pub use planner::{plan_pass1_coded, plan_pass1_residual, planner_shape, Pass1Planner};
pub use functors::{DistributeSortFunctor, FullMergeFunctor, SubsetMergeFunctor};
pub use verify::{
    canonical_equal, canonical_records, check_tag_permutation, reconstruct_sorted,
    verify_rec128_output, VerifyError,
};
