//! Two-level cluster control: per-server CTMDP policies coordinated by a
//! cluster-level CTMDP over aggregate load.
//!
//! The fleet controller decomposes the `(load level, active servers)`
//! decision problem:
//!
//! 1. **Per-server sweep** — for every pair `(ℓ, k)` of load level and
//!    active-server count, a local CTMDP (supplied by the caller; the
//!    bench uses the paper's power-managed SYS model with the load split
//!    `k` ways) is solved by multichain policy iteration. Its average
//!    cost rate `g_{ℓ,k}` is the per-server operating cost under the best
//!    local power policy. The sweep runs through the harness
//!    [`SolvePlan`] machinery, so points are solved in parallel with
//!    deterministic, schedule-independent seeds.
//! 2. **Cluster CTMDP** — a CTMDP over `(ℓ, k)` chooses when to wake or
//!    retire servers: load levels move as a birth–death chain, wake/sleep
//!    actions move `k` one server at a time at finite transition rates,
//!    and the cost rate charges `k · g_{ℓ,k}` for the active servers,
//!    sleep power for the parked ones, and a drop penalty for offered
//!    load arriving while the fleet is fully asleep.
//!
//! The optimal cluster policy is evaluated exactly: its induced chain
//! goes through the stock stationary [`Solver`] ladder, which solves the
//! closed class of a sleepy, reducible policy and puts zero mass on its
//! transient states.

use dpm_ctmc::stationary::{Method, SolveStats, Solver};
use dpm_harness::{run_solve_plan, PlanPoint, SolvePlan};
use dpm_mdp::average::{policy_iteration_multichain, Options};
use dpm_mdp::Ctmdp;

use dpm_linalg::DVector;

use crate::error::ClusterError;

/// Static description of the cluster-level decision problem.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Fleet size `K`.
    pub k: usize,
    /// Birth rates between adjacent load levels: `level_up[ℓ]` is the
    /// rate of `ℓ → ℓ+1`. Length `L − 1`.
    pub level_up: Vec<f64>,
    /// Death rates between adjacent load levels: `level_down[ℓ]` is the
    /// rate of `ℓ+1 → ℓ`. Length `L − 1`.
    pub level_down: Vec<f64>,
    /// Offered load per level (requests per unit time), charged as drops
    /// when zero servers are active. Length `L`.
    pub offered: Vec<f64>,
    /// Rate at which a parked server wakes once the wake action is held.
    pub wake_rate: f64,
    /// Rate at which an active server parks once the sleep action is
    /// held.
    pub sleep_rate: f64,
    /// Power cost rate of one parked server.
    pub sleep_power: f64,
    /// Cost per dropped request.
    pub drop_penalty: f64,
    /// Root seed for the per-server sweep plan.
    pub root_seed: u64,
}

impl ClusterSpec {
    /// Number of load levels `L`.
    #[must_use]
    pub fn n_levels(&self) -> usize {
        self.offered.len()
    }

    /// Cluster state index of `(level, active)` — levels vary slowest.
    #[must_use]
    pub fn state_of(&self, level: usize, active: usize) -> usize {
        level * (self.k + 1) + active
    }

    fn validate(&self) -> Result<(), ClusterError> {
        if self.k == 0 {
            return Err(ClusterError::InvalidModel {
                reason: "cluster has zero servers".to_owned(),
            });
        }
        let levels = self.offered.len();
        if levels == 0 {
            return Err(ClusterError::InvalidModel {
                reason: "cluster needs at least one load level".to_owned(),
            });
        }
        if self.level_up.len() != levels - 1 || self.level_down.len() != levels - 1 {
            return Err(ClusterError::InvalidModel {
                reason: format!(
                    "level rates must have {} entries for {} levels (got {} up, {} down)",
                    levels - 1,
                    levels,
                    self.level_up.len(),
                    self.level_down.len()
                ),
            });
        }
        let finite_nonneg = |name: &str, v: f64| -> Result<(), ClusterError> {
            if !v.is_finite() || v < 0.0 {
                return Err(ClusterError::InvalidModel {
                    reason: format!("{name} = {v} must be finite and non-negative"),
                });
            }
            Ok(())
        };
        for (i, &r) in self.level_up.iter().enumerate() {
            finite_nonneg(&format!("level_up[{i}]"), r)?;
        }
        for (i, &r) in self.level_down.iter().enumerate() {
            finite_nonneg(&format!("level_down[{i}]"), r)?;
        }
        for (i, &r) in self.offered.iter().enumerate() {
            finite_nonneg(&format!("offered[{i}]"), r)?;
        }
        if !self.wake_rate.is_finite() || self.wake_rate <= 0.0 {
            return Err(ClusterError::InvalidModel {
                reason: format!("wake_rate {} must be finite and positive", self.wake_rate),
            });
        }
        if !self.sleep_rate.is_finite() || self.sleep_rate <= 0.0 {
            return Err(ClusterError::InvalidModel {
                reason: format!("sleep_rate {} must be finite and positive", self.sleep_rate),
            });
        }
        finite_nonneg("sleep_power", self.sleep_power)?;
        finite_nonneg("drop_penalty", self.drop_penalty)?;
        Ok(())
    }
}

/// Solution of the two-level decomposition.
#[derive(Debug, Clone)]
pub struct TwoLevelSolution {
    gains: Vec<Vec<f64>>,
    actions: Vec<String>,
    pi: DVector,
    average_cost: f64,
    mean_active: f64,
    stats: SolveStats,
    sweep_points: usize,
}

impl TwoLevelSolution {
    /// Per-server optimal average cost `g_{ℓ,k}`, indexed `[level][k]`
    /// with `k` from 1 (entry `[level][0]` corresponds to `k = 1`).
    #[must_use]
    pub fn gains(&self) -> &[Vec<f64>] {
        &self.gains
    }

    /// Chosen cluster action label per `(level, active)` state, indexed
    /// by [`ClusterSpec::state_of`].
    #[must_use]
    pub fn actions(&self) -> &[String] {
        &self.actions
    }

    /// Stationary distribution of the controlled cluster chain.
    #[must_use]
    pub fn pi(&self) -> &DVector {
        &self.pi
    }

    /// Long-run average cluster cost rate.
    #[must_use]
    pub fn average_cost(&self) -> f64 {
        self.average_cost
    }

    /// Long-run mean number of active servers.
    #[must_use]
    pub fn mean_active(&self) -> f64 {
        self.mean_active
    }

    /// Stationary-solver diagnostics for the induced-chain evaluation.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Number of `(level, k)` points the per-server sweep solved.
    #[must_use]
    pub fn sweep_points(&self) -> usize {
        self.sweep_points
    }
}

/// Runs the two-level solve.
///
/// `local_model(level, k)` supplies the per-server CTMDP for load level
/// `level` when `k` servers share the load; `workers` bounds the sweep's
/// parallelism.
///
/// # Errors
///
/// Propagates spec validation, sweep, policy-iteration, and
/// stationary-solve failures.
pub fn solve_two_level<F>(
    spec: &ClusterSpec,
    local_model: F,
    workers: usize,
) -> Result<TwoLevelSolution, ClusterError>
where
    F: Fn(usize, usize) -> Result<Ctmdp, ClusterError> + Sync,
{
    spec.validate()?;
    let levels = spec.n_levels();
    let k_max = spec.k;

    // Stage 1: per-server sweep over (level, k) through the harness plan
    // runner — deterministic order, parallel execution.
    let mut plan = SolvePlan::new("cluster-local-sweep", spec.root_seed);
    for level in 0..levels {
        for k in 1..=k_max {
            plan = plan.point(
                PlanPoint::new(format!("level{level}-k{k}"))
                    .with("level", level as i64)
                    .with("active", k as i64),
            );
        }
    }
    let records = run_solve_plan(&plan, workers, |ctx| {
        let level = ctx.index / k_max;
        let k = ctx.index % k_max + 1;
        let mdp = local_model(level, k).map_err(|e| e.to_string())?;
        let solution =
            policy_iteration_multichain(&mdp, mdp.min_cost_policy(), &Options::default())
                .map_err(|e| e.to_string())?;
        Ok(solution.gain_from(0))
    })
    .map_err(|e| ClusterError::Solve {
        reason: format!("per-server sweep failed: {e}"),
    })?;
    let mut gains = vec![vec![0.0f64; k_max]; levels];
    for record in &records {
        gains[record.index / k_max][record.index % k_max] = record.output;
    }

    // Stage 2: the cluster CTMDP over (level, active).
    let n = levels * (k_max + 1);
    let mut builder = Ctmdp::builder(n);
    for (level, level_gains) in gains.iter().enumerate() {
        for active in 0..=k_max {
            let state = spec.state_of(level, active);
            let mut base: Vec<(usize, f64)> = Vec::new();
            if level + 1 < levels && spec.level_up[level] > 0.0 {
                base.push((spec.state_of(level + 1, active), spec.level_up[level]));
            }
            if level > 0 && spec.level_down[level - 1] > 0.0 {
                base.push((spec.state_of(level - 1, active), spec.level_down[level - 1]));
            }
            let mut cost = (k_max - active) as f64 * spec.sleep_power;
            if active > 0 {
                cost += active as f64 * level_gains[active - 1];
            } else {
                cost += spec.drop_penalty * spec.offered[level];
            }
            builder.action(state, "hold", cost, &base)?;
            if active < k_max {
                let mut rates = base.clone();
                rates.push((spec.state_of(level, active + 1), spec.wake_rate));
                builder.action(state, "wake", cost, &rates)?;
            }
            if active > 0 {
                let mut rates = base.clone();
                rates.push((spec.state_of(level, active - 1), spec.sleep_rate));
                builder.action(state, "sleep", cost, &rates)?;
            }
        }
    }
    let mdp = builder.build()?;
    let solution = policy_iteration_multichain(&mdp, mdp.min_cost_policy(), &Options::default())?;
    let policy = solution.policy().clone();

    // Exact evaluation of the induced chain through the stock solver
    // ladder (a reducible sleep policy is solved on its closed class).
    let generator = mdp.sparse_generator_for(&policy)?;
    let (pi, stats) = Solver::new(Method::BiCgStab)
        .with_default_fallback()
        .solve(&generator)?;

    let mut average_cost = 0.0;
    let mut mean_active = 0.0;
    let mut actions = Vec::with_capacity(n);
    for state in 0..n {
        let a = policy.action(state);
        let spec_action = &mdp.actions(state)[a];
        average_cost += pi[state] * spec_action.cost_rate();
        mean_active += pi[state] * (state % (k_max + 1)) as f64;
        actions.push(spec_action.label().to_owned());
    }

    Ok(TwoLevelSolution {
        gains,
        actions,
        pi,
        average_cost,
        mean_active,
        stats,
        sweep_points: records.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-mode local server: busy (0) and idle-capable (1), with mode
    /// switching as the decision. Load scales down with the number of
    /// active servers sharing it.
    fn local_server(level: usize, k: usize) -> Result<Ctmdp, ClusterError> {
        let load = (level as f64 + 1.0) / k as f64;
        let mut b = Ctmdp::builder(2);
        // State 0: serving. Stay on (power 2.0) or allow drift to nap.
        b.action(0, "on", 2.0 + load, &[(1, 1.0 / (load + 1.0))])?;
        // State 1: napping. Wake on load, or stay napping cheaply.
        b.action(1, "nap", 0.3, &[(0, load)])?;
        b.action(1, "deep", 0.1, &[(0, load * 0.5)])?;
        Ok(b.build()?)
    }

    fn spec() -> ClusterSpec {
        ClusterSpec {
            k: 3,
            level_up: vec![0.8, 0.5],
            level_down: vec![1.0, 1.2],
            offered: vec![1.0, 2.0, 3.0],
            wake_rate: 5.0,
            sleep_rate: 4.0,
            sleep_power: 0.2,
            drop_penalty: 10.0,
            root_seed: 42,
        }
    }

    #[test]
    fn two_level_solve_produces_distribution_and_policy() {
        let solution = solve_two_level(&spec(), local_server, 2).unwrap();
        let s = spec();
        assert_eq!(solution.sweep_points(), 9);
        assert_eq!(solution.actions().len(), 3 * 4);
        let mass: f64 = (0..solution.pi().len()).map(|i| solution.pi()[i]).sum();
        assert!((mass - 1.0).abs() < 1e-8);
        assert!(solution.mean_active() >= 0.0 && solution.mean_active() <= s.k as f64);
        assert!(solution.average_cost().is_finite());
        // Every gain entry was filled by the sweep.
        for row in solution.gains() {
            for &g in row {
                assert!(g.is_finite());
            }
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let serial = solve_two_level(&spec(), local_server, 1).unwrap();
        let parallel = solve_two_level(&spec(), local_server, 4).unwrap();
        assert_eq!(serial.actions(), parallel.actions());
        assert!((serial.average_cost() - parallel.average_cost()).abs() < 1e-12);
    }

    #[test]
    fn spec_validation_rejects_malformed_inputs() {
        let mut bad = spec();
        bad.level_up = vec![0.8];
        assert!(solve_two_level(&bad, local_server, 1).is_err());
        let mut zero = spec();
        zero.k = 0;
        assert!(solve_two_level(&zero, local_server, 1).is_err());
        let mut neg = spec();
        neg.sleep_power = -1.0;
        assert!(solve_two_level(&neg, local_server, 1).is_err());
    }
}
