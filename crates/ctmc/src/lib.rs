//! Continuous-time Markov chains (CTMCs) and Markov reward processes.
//!
//! This crate provides the stochastic-process substrate of the `dpm`
//! workspace, following Section II of Qiu & Pedram (DAC 1999):
//!
//! * [`Generator`] — a validated transition-rate (generator) matrix **G**
//!   (Eqns. 2.1–2.4): off-diagonal entries non-negative, rows summing to
//!   zero;
//! * [`SparseGenerator`] — the same invariants over compressed sparse row
//!   storage, for SYS-level chains whose transition count grows linearly in
//!   the state count;
//! * [`stationary`] — limiting-distribution solvers (`πG = 0`, `Σπ = 1`,
//!   Theorem 2.1) behind the unified [`stationary::Solver`] builder, which
//!   solves the one closed class of its input: the numerically stable
//!   Grassmann–Taksar–Heyman state reduction in reverse Cuthill–McKee
//!   order (one kernel for dense and sparse input), matrix-free
//!   Gauss–Seidel on the balance equations, and
//!   ILU(0)-preconditioned BiCGSTAB for very large sparse chains
//!   ([`stationary::Method`]); and, for possibly multichain chains,
//!   [`stationary::ChainFactors`], which factors the gain/bias equations
//!   once per chain and solves them for any number of cost vectors;
//! * [`graph`] — communicating classes (Definitions 2.3–2.6) via Tarjan's
//!   strongly-connected-components algorithm, irreducibility and
//!   connectivity checks, and the reverse Cuthill–McKee order GTH
//!   eliminates in;
//! * [`transient`] — transient state probabilities by uniformization;
//! * [`reward`] — Markov processes with reward rates and transition rewards
//!   (the `r_{i,i}` / `r_{i,j}` structure of Section II and Eqn. 2.5);
//! * [`Dtmc`] — discrete-time chains (the uniformized chain that transient
//!   analysis steps, and the embedded jump chain);
//! * [`birth_death`] — closed-form M/M/1/K results used as ground truth in
//!   tests.
//!
//! # Examples
//!
//! A two-state machine that breaks at rate 1 and is repaired at rate 3
//! spends 3/4 of its time up:
//!
//! ```
//! use dpm_ctmc::{Generator, stationary};
//!
//! # fn main() -> Result<(), dpm_ctmc::CtmcError> {
//! let g = Generator::builder(2)
//!     .rate(0, 1, 1.0) // up -> down
//!     .rate(1, 0, 3.0) // down -> up
//!     .build()?;
//! let (pi, _) = stationary::Solver::new(stationary::Method::Gth).solve(&g)?;
//! assert!((pi[0] - 0.75).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod birth_death;
mod dtmc;
mod error;
mod generator;
pub mod graph;
pub mod hitting;
pub mod reward;
pub mod sparse;
pub mod stationary;
pub mod transient;

pub use dtmc::Dtmc;
pub use error::CtmcError;
pub use generator::{Generator, GeneratorBuilder};
pub use reward::RewardProcess;
pub use sparse::SparseGenerator;
