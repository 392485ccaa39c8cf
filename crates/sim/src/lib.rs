//! Event-driven simulation of power-managed systems.
//!
//! Section V of the paper: *"We have written an event-driven simulator for
//! simulating the real-time operation of a portable system together with
//! the power management policy. The simulator simulates the operations of
//! the server, the queue and the power manager under real-time input
//! requests."* This crate is that simulator:
//!
//! * [`Simulator`] — the engine: exponential service and mode-switch times,
//!   a FIFO queue with loss at capacity, a power manager consulted on every
//!   state change (the *asynchronous* trigger discipline the paper
//!   advocates), energy accounting for mode switches;
//! * [`workload`] — request streams: Poisson, piecewise-Poisson (drifting
//!   rate, for the adaptive experiment), and trace replay;
//! * [`controller`] — power-management policies: table-driven optimal
//!   policies from `dpm-core`, randomized policies from the constrained
//!   LP, N-policies, time-out policies, greedy, always-on, and an adaptive
//!   controller that estimates `λ` online and re-solves (the paper's
//!   Section III suggestion);
//! * [`SimReport`] — time-averaged power, queue length, waiting (sojourn)
//!   time, loss and switching statistics with batch-means confidence
//!   intervals.
//!
//! # Examples
//!
//! Simulate the paper's server under the greedy policy:
//!
//! ```
//! use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
//! use dpm_sim::{controller::TableController, workload::PoissonWorkload, SimConfig, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = PmSystem::builder()
//!     .provider(SpModel::dac99_server()?)
//!     .requestor(SrModel::poisson(1.0 / 6.0)?)
//!     .capacity(5)
//!     .build()?;
//! let policy = PmPolicy::greedy(&system)?;
//! let report = Simulator::new(
//!     system.provider().clone(),
//!     system.capacity(),
//!     PoissonWorkload::new(1.0 / 6.0)?,
//!     TableController::new(&system, &policy)?,
//!     SimConfig::new(42).max_requests(20_000),
//! )
//! .run()?;
//! assert!(report.average_power() < 40.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
mod engine;
mod error;
mod merge;
mod report;
mod rng;
pub mod workload;

pub use engine::{SimConfig, SimRun, Simulator};
pub use error::SimError;
pub use merge::MergedReport;
pub use report::{ReportParts, SimReport};
pub use rng::exponential;
