//! # dpm — Dynamic Power Management via Continuous-Time Markov Decision Processes
//!
//! A from-scratch Rust implementation of **Qiu & Pedram, "Dynamic Power
//! Management Based on Continuous-Time Markov Decision Processes"
//! (DAC 1999)**: the system model (service provider / queue / requestor
//! with transfer states), the policy-iteration optimizer, the LP and
//! heuristic baselines, and the event-driven simulator used to validate
//! everything.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`linalg`] | `dpm-linalg` | dense matrices, CSR sparse matrices, dense LU, Kronecker algebra, preconditioned Krylov solvers over any linear operator (BiCGSTAB, GMRES(60), ILU(0), block Jacobi) |
//! | [`ctmc`] | `dpm-ctmc` | Markov chains: dense and sparse generators, the unified `stationary::Solver` builder over `Method::{Gth, Iterative, BiCgStab}` (solving the closed class of a unichain input), transient analysis, rewards |
//! | [`lp`] | `dpm-lp` | two-phase primal simplex |
//! | [`mdp`] | `dpm-mdp` | CTMDP solvers: policy iteration (Howard's multichain algorithm over `ChainFactors` evaluation), value iteration, occupation-measure LPs |
//! | [`model`] | `dpm-core` | the paper's power-management model and policy optimization; SYS generators assemble densely or directly into CSR |
//! | [`sim`] | `dpm-sim` | the event-driven simulator, workloads and controllers |
//! | [`serve`] | `dpm-serve` | compiled-policy serving: `CompiledPolicy` artifacts and the sharded multi-core event runtime |
//! | [`cluster`] | `dpm-cluster` | K-server fleets: matrix-free Kronecker joint solves (block-Jacobi GMRES), exchangeability lumping, two-level cluster CTMDP control |
//!
//! Large state spaces (queue capacities in the hundreds and beyond)
//! should use the sparse pipeline — [`model`]'s
//! `PmSystem::sparse_generator_for` feeding [`ctmc`]'s
//! `stationary::Solver` with `Method::Iterative` or, from ~10⁴ states on
//! well-conditioned chains, the ILU(0)-preconditioned `Method::BiCgStab`
//! — which the `scaling` bench measures at ~9–14× faster than dense GTH
//! by Q = 200 while agreeing to ~3e-12.
//!
//! # Quickstart
//!
//! Optimize a power-management policy for the paper's three-mode server
//! and check it beats the greedy heuristic on weighted cost:
//!
//! ```
//! use dpm::model::{optimize, PmPolicy, PmSystem, SpModel, SrModel};
//!
//! # fn main() -> Result<(), dpm::model::DpmError> {
//! let system = PmSystem::builder()
//!     .provider(SpModel::dac99_server()?)
//!     .requestor(SrModel::poisson(1.0 / 6.0)?)
//!     .capacity(5)
//!     .build()?;
//! let weight = 1.0;
//! let optimal = optimize::optimal_policy(&system, weight)?;
//! let greedy = system.evaluate(&PmPolicy::greedy(&system)?)?;
//! let optimal_cost =
//!     optimal.metrics().power() + weight * optimal.metrics().queue_length();
//! let greedy_cost = greedy.power() + weight * greedy.queue_length();
//! assert!(optimal_cost <= greedy_cost);
//! # Ok(())
//! # }
//! ```
//!
//! # Serving a compiled policy
//!
//! Once optimized, a policy can be lowered into a [`serve`]
//! `CompiledPolicy` — a dense O(1) action table — and driven over a
//! fleet of simulated systems by the sharded runtime. The outcome is
//! bit-identical at every shard count:
//!
//! ```
//! use dpm::model::{PmPolicy, PmSystem, SpModel, SrModel};
//! use dpm::serve::{serve, CompiledPolicy, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = PmSystem::builder()
//!     .provider(SpModel::dac99_server()?)
//!     .requestor(SrModel::poisson(1.0 / 6.0)?)
//!     .capacity(5)
//!     .build()?;
//! let compiled = CompiledPolicy::compile(&system, &PmPolicy::greedy(&system)?)?;
//! let config = ServeConfig::new(7).systems(8).requests_per_system(200);
//! let serial = serve(&system, &compiled, &config)?;
//! let sharded = serve(&system, &compiled, &config.clone().shards(4))?;
//! assert_eq!(serial.fingerprint(), sharded.fingerprint());
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and the
//! `dpm-bench` crate for the binaries that regenerate every table and
//! figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpm_cluster as cluster;
pub use dpm_core as model;
pub use dpm_ctmc as ctmc;
pub use dpm_harness as harness;
pub use dpm_linalg as linalg;
pub use dpm_lp as lp;
pub use dpm_mdp as mdp;
pub use dpm_serve as serve;
pub use dpm_sim as sim;
