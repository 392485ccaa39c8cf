//! Continuous-time Markov decision processes and their solvers.
//!
//! This crate implements the decision-theoretic layer of the workspace:
//!
//! * [`Ctmdp`] — a continuous-time Markov decision process: per-state action
//!   sets, action-dependent transition rates `s_{i,j}^{a}` and cost rates
//!   `c_i^{a}` (Section II of Qiu & Pedram, DAC 1999, following Howard and
//!   Miller);
//! * [`average`] — Howard-style **policy iteration** for the limiting
//!   average cost criterion, the algorithm the paper uses to solve the
//!   power-management policy-optimization problem;
//! * [`discounted`] — policy iteration for the discounted criterion
//!   (discount rate `α`, Theorem 2.2);
//! * [`value_iteration`] — relative value iteration on the uniformized
//!   chain, with span-based gain bounds;
//! * [`lp`] — the occupation-measure linear program, both unconstrained
//!   (the DAC'98 solution technique the paper compares against) and with an
//!   auxiliary performance constraint, which yields possibly *randomized*
//!   optimal policies.
//!
//! All solvers use the *cost* convention (minimize); rewards are negated
//! costs as the paper notes at the end of Section II.
//!
//! # Examples
//!
//! A machine that can run fast (cheap to be in, expensive transitions) or
//! slow; policy iteration finds the cost-optimal stationary policy:
//!
//! ```
//! use dpm_mdp::{average, Ctmdp};
//!
//! # fn main() -> Result<(), dpm_mdp::MdpError> {
//! let mut b = Ctmdp::builder(2);
//! // state 0: choose to degrade fast or slowly
//! b.action(0, "degrade-fast", 1.0, &[(1, 2.0)])?;
//! b.action(0, "degrade-slow", 3.0, &[(1, 0.5)])?;
//! // state 1: repair
//! b.action(1, "repair", 10.0, &[(0, 1.0)])?;
//! let mdp = b.build()?;
//! let solution = average::policy_iteration_multichain(
//!     &mdp,
//!     mdp.min_cost_policy(),
//!     &average::Options::default(),
//! )?;
//! assert!(solution.gain_from(0) > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod average;
mod ctmdp;
pub mod discounted;
mod error;
mod kernel;
pub mod lp;
mod policy;
pub mod value_iteration;

pub use ctmdp::{ActionSpec, Ctmdp, CtmdpBuilder};
pub use error::MdpError;
pub use kernel::ActionCsr;
pub use policy::{Policy, RandomizedPolicy};
