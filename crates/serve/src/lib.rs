//! Policy serving: compiled artifacts and a supervised sharded runtime.
//!
//! The solver stack (`dpm-mdp`, `dpm-lp`) produces an optimal
//! power-management policy; this crate is what runs it at scale. It has
//! three layers:
//!
//! * [`CompiledPolicy`] — a table policy lowered to dense constant-time
//!   lookup arrays (mixed-radix stable index, minimal-perfect transfer
//!   lookup, one-byte actions), versioned and serialized through the
//!   harness's canonical JSON;
//! * [`serve`] — a sharded event runtime: a fleet of independent
//!   simulated systems partitioned across threads, each batching events
//!   against the shared artifact, with per-system seeds from
//!   `dpm_harness::seed::derive_serve_attempt_seed` and one merge of the
//!   reports in fleet order, so N-shard output is **bit-identical** to
//!   1-shard;
//! * supervision — a typed error taxonomy ([`ErrorClass`], [`ServeError`])
//!   with one attempt budget (`ServeConfig::max_attempts`),
//!   per-system panic isolation, a JSONL fleet checkpoint journal
//!   (`ServeConfig::checkpoint` / `ServeConfig::resume`) whose replay-based
//!   restore makes kill-at-any-point + resume bit-identical — written and
//!   read through `dpm_harness::journal`, the plan runner's journal, with
//!   only the fleet's record codec kept here — hot policy
//!   swaps at deterministic event barriers ([`SwapPlan`]), and graceful
//!   degradation: budget-exhausted systems are quarantined while the rest
//!   of the fleet's results stay untouched ([`SystemRecord`]).
//!
//! # Examples
//!
//! Compile the greedy policy for the paper's server and serve a small
//! fleet on two shards, checkpointing progress and hot-swapping to the
//! always-on policy once each system has processed 400 events:
//!
//! ```
//! use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
//! use dpm_serve::{serve, CompiledPolicy, ServeConfig, SwapPlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = PmSystem::builder()
//!     .provider(SpModel::dac99_server()?)
//!     .requestor(SrModel::poisson(1.0 / 6.0)?)
//!     .capacity(5)
//!     .build()?;
//! let policy = CompiledPolicy::compile(&system, &PmPolicy::greedy(&system)?)?;
//! let replacement = CompiledPolicy::compile(&system, &PmPolicy::always_on(&system, 0)?)?;
//! let journal = std::env::temp_dir().join(format!("dpm-serve-doc-{}.jsonl", std::process::id()));
//! let config = ServeConfig::new(42)
//!     .systems(8)
//!     .requests_per_system(500)
//!     .shards(2)
//!     .swaps(SwapPlan::new().swap_at(400, replacement))
//!     .checkpoint(&journal);
//! let outcome = serve(&system, &policy, &config)?;
//! assert_eq!(outcome.merged().runs(), 8);
//! assert!(outcome.swap_outcomes()[0].accepted());
//! // The journal restores the finished fleet verbatim, and shard count
//! // never changes the numbers, only the wall clock:
//! let resumed = serve(
//!     &system,
//!     &policy,
//!     &config.clone().shards(1).resume(&journal),
//! )?;
//! assert_eq!(outcome.fingerprint(), resumed.fingerprint());
//! # std::fs::remove_file(&journal).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod compiled;
mod engine;
mod error;
mod supervise;

pub use compiled::{CompiledController, CompiledPolicy, COMPILED_POLICY_FORMAT};
pub use engine::{serve, ServeConfig, ServeOutcome, SERVE_OUTCOME_FORMAT};
pub use error::{ConfigError, ErrorClass, ServeError};
pub use supervise::{ServeFaultPlan, SwapOutcome, SwapPlan, SystemRecord, SystemStatus};
