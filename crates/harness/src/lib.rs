//! `dpm-harness` — parallel experiment orchestration for the DPM-CTMDP
//! workspace.
//!
//! The paper's results are Monte-Carlo comparisons over sweeps of policies
//! and workloads; at production scale those sweeps are many points × many
//! replications. This crate is the substrate that runs them:
//!
//! * [`plan`] — an experiment plan: a named cartesian grid of sweep
//!   parameters crossed with a replication count under one root seed;
//! * [`seed`] — deterministic per-task seed derivation (a ChaCha8 stream
//!   keyed by grid position), making parallel output bit-identical to
//!   serial;
//! * [`pool`] — a work-stealing thread pool (std threads + mutexed
//!   deques; the build is hermetic, so no external runtime);
//! * [`telemetry`] — a thread-safe [`Registry`] of
//!   counters/gauges/histograms/timers for solver and simulator
//!   diagnostics, with deterministic metrics kept apart from wall-clock
//!   ones;
//! * [`runner`] — executes a plan's tasks and collects per-task records
//!   in plan order; [`runner::run_plan_resilient`] adds task isolation
//!   (`catch_unwind`), deterministic retry and checkpoint/resume;
//! * [`solve`] — the typed solve-phase pipeline: a [`SolvePlan`] runs one
//!   solver task per sweep point on the same pool, returning typed records
//!   in plan order, bit-identical to serial at any worker count;
//! * [`journal`] — the JSONL checkpoint journal behind every resumable
//!   run, this crate's and `dpm-serve`'s: line-atomic appends, reads that
//!   tolerate only a torn last line, and the contiguous runs that compact
//!   carried-forward records on resume;
//! * [`checkpoint`] — the runner's journal records: one per completed
//!   task behind `--checkpoint` / `--resume`, validated against the plan,
//!   with range records for carried-forward tasks;
//! * [`artifact`] — versioned JSON artifacts (`schema_version`,
//!   provenance, per-task telemetry) plus a tolerance-aware [`artifact::diff`]
//!   for regression checking;
//! * [`cli`] — the tiny flag parser the experiment binaries share.
//!
//! # Example
//!
//! ```
//! use dpm_harness::{artifact, json::Json, plan::{Plan, PlanPoint}, runner};
//!
//! # fn main() -> Result<(), dpm_harness::HarnessError> {
//! let plan = Plan::new("demo", 42)
//!     .replications(4)
//!     .point(PlanPoint::new("slow").with("rate", 0.1))
//!     .point(PlanPoint::new("fast").with("rate", 0.5));
//! let records = runner::run_plan(&plan, 2, |ctx| {
//!     ctx.telemetry.incr("tasks", 1);
//!     let rate = ctx.point.param("rate").unwrap().as_f64().unwrap();
//!     let mut out = Json::object();
//!     out.set("rate", rate); // a real task would simulate with ctx.seed
//!     Ok(out)
//! })?;
//! let doc = artifact::build(&plan, 2, &records);
//! assert_eq!(doc.get("schema_version"), Some(&Json::Int(2)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod checkpoint;
pub mod cli;
mod error;
pub mod journal;
pub mod json;
pub mod plan;
pub mod pool;
pub mod runner;
pub mod seed;
pub mod solve;
pub mod telemetry;

pub use error::HarnessError;
pub use json::Json;
pub use plan::{ParamValue, Plan, PlanPoint};
pub use runner::{
    run_plan, run_plan_resilient, FaultPlan, RunConfig, RunReport, TaskCtx, TaskFailure,
    TaskOutcome, TaskRecord,
};
pub use solve::{run_solve_plan, SolveCtx, SolvePlan, SolveRecord};
pub use telemetry::Registry;
