//! Policy optimization (paper Section IV).
//!
//! Three entry points:
//!
//! * [`optimal_policy`] — minimize `C_pow + w · C_sq` for one weight `w`
//!   by policy iteration (the paper's Figure 3 workflow). Each policy's
//!   chain is factored once: the metrics of the optimum come from the
//!   factors of the round that evaluated it;
//! * [`sweep`] — trace the power/performance frontier by sweeping `w`
//!   (how the paper generates its Figure 4 curve);
//! * [`constrained_policy`] / [`constrained_lp`] — minimize power subject
//!   to `E[C_sq] ≤ D_M`: the former searches the weight by bisection over
//!   deterministic policies, the latter solves the occupation-measure LP
//!   exactly (possibly randomized).

use dpm_mdp::average;

use crate::{DpmError, PmPolicy, PmSystem, PolicyMetrics};

/// A solved policy-optimization instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalSolution {
    policy: PmPolicy,
    metrics: PolicyMetrics,
    weight: f64,
    iterations: usize,
    eval_residual: f64,
    eval_secs: Vec<f64>,
}

impl OptimalSolution {
    /// The optimal policy.
    #[must_use]
    pub fn policy(&self) -> &PmPolicy {
        &self.policy
    }

    /// Long-run metrics of the optimal policy, from the initial state.
    ///
    /// They come from the chain factors of policy iteration's last round,
    /// which evaluated this very policy, so no second factorization is
    /// made; the bits equal those of [`PmSystem::evaluate`] on
    /// [`OptimalSolution::policy`].
    #[must_use]
    pub fn metrics(&self) -> &PolicyMetrics {
        &self.metrics
    }

    /// The performance weight the policy was optimized for.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Policy-iteration rounds used.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Worst-case residual of the gain/bias evaluation equations at the
    /// converged policy (a solver-quality diagnostic).
    #[must_use]
    pub fn eval_residual(&self) -> f64 {
        self.eval_residual
    }

    /// Wall-clock seconds spent in each policy-evaluation round.
    #[must_use]
    pub fn eval_timings(&self) -> &[f64] {
        &self.eval_secs
    }
}

/// Finds the policy minimizing `C_pow + weight · C_sq` by policy iteration.
///
/// # Errors
///
/// Returns [`DpmError::InvalidModel`] for a bad weight or a provider
/// without an active mode, and propagates solver failures.
///
/// # Examples
///
/// ```
/// use dpm_core::{optimize, PmSystem, SpModel, SrModel};
///
/// # fn main() -> Result<(), dpm_core::DpmError> {
/// let system = PmSystem::builder()
///     .provider(SpModel::dac99_server()?)
///     .requestor(SrModel::poisson(1.0 / 6.0)?)
///     .capacity(5)
///     .build()?;
/// // Heavier weight on delay -> shorter queue, more power.
/// let patient = optimize::optimal_policy(&system, 0.1)?;
/// let eager = optimize::optimal_policy(&system, 50.0)?;
/// assert!(eager.metrics().queue_length() <= patient.metrics().queue_length());
/// assert!(eager.metrics().power() >= patient.metrics().power());
/// # Ok(())
/// # }
/// ```
pub fn optimal_policy(system: &PmSystem, weight: f64) -> Result<OptimalSolution, DpmError> {
    let mdp = system.ctmdp(weight)?;
    let options = average::Options::default();
    // Start from a policy that commands a wake-up everywhere it is legal:
    // its chain funnels every state into the active service loop, so it is
    // unichain — the safe starting point for Howard's algorithm. (The
    // min-cost default start is "stay everywhere", whose chain decomposes
    // into one class per mode.)
    let fastest = system.state(system.initial_state_index()).mode();
    let initial = PmPolicy::always_on(system, fastest)?.to_mdp_policy(system)?;
    let solution =
        average::policy_iteration_multichain(&mdp, initial, &options).map_err(DpmError::Mdp)?;
    let policy = PmPolicy::from_mdp_policy(system, solution.policy())?;
    // The last round evaluated this very policy: its chain factors give
    // the metrics with no second factorization.
    let metrics =
        system.metrics_from_factors(&policy, solution.factors(), system.initial_state_index())?;
    Ok(OptimalSolution {
        policy,
        metrics,
        weight,
        iterations: solution.iterations(),
        eval_residual: solution.eval_residual(),
        eval_secs: solution.eval_timings().to_vec(),
    })
}

/// Solves for every weight in `weights`, returning the frontier in input
/// order.
///
/// # Errors
///
/// Propagates the first per-weight failure.
pub fn sweep(system: &PmSystem, weights: &[f64]) -> Result<Vec<OptimalSolution>, DpmError> {
    weights.iter().map(|&w| optimal_policy(system, w)).collect()
}

/// Minimizes average power subject to `E[#requests] ≤ max_queue_length`,
/// searching the performance weight by bisection over deterministic
/// policy-iteration solutions.
///
/// The returned solution is the cheapest deterministic policy found that
/// satisfies the constraint. Because deterministic frontiers are step
/// functions, the exact constrained optimum may need randomization — see
/// [`constrained_lp`] for the exact (possibly randomized) answer.
///
/// # Errors
///
/// Returns [`DpmError::ConstraintUnsatisfiable`] if even an arbitrarily
/// delay-averse weight cannot meet the bound.
pub fn constrained_policy(
    system: &PmSystem,
    max_queue_length: f64,
) -> Result<OptimalSolution, DpmError> {
    if !(max_queue_length > 0.0 && max_queue_length.is_finite()) {
        return Err(DpmError::InvalidModel {
            reason: format!("queue-length bound {max_queue_length} must be positive"),
        });
    }
    // Establish a feasible upper weight.
    let mut w_hi = 1.0;
    let mut best: Option<OptimalSolution> = None;
    for _ in 0..40 {
        let candidate = optimal_policy(system, w_hi)?;
        if candidate.metrics().queue_length() <= max_queue_length {
            best = Some(candidate);
            break;
        }
        w_hi *= 4.0;
    }
    let Some(mut best) = best else {
        return Err(DpmError::ConstraintUnsatisfiable {
            bound: max_queue_length,
        });
    };
    // If the unconstrained (w = 0) solution already satisfies the bound it
    // is optimal for power.
    let unconstrained = optimal_policy(system, 0.0)?;
    if unconstrained.metrics().queue_length() <= max_queue_length {
        return Ok(unconstrained);
    }
    // Bisect for the smallest satisfying weight (smaller weight = lower
    // power among satisfying policies).
    let mut lo = 0.0;
    let mut hi = best.weight();
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let candidate = optimal_policy(system, mid)?;
        if candidate.metrics().queue_length() <= max_queue_length {
            if candidate.metrics().power() <= best.metrics().power() {
                best = candidate;
            }
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-9 * (1.0 + hi) {
            break;
        }
    }
    Ok(best)
}

/// Result of the exact constrained LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedLpSolution {
    policy: dpm_mdp::RandomizedPolicy,
    power: f64,
    queue_length: f64,
}

impl ConstrainedLpSolution {
    /// The optimal stationary policy (randomized in at most one state).
    #[must_use]
    pub fn policy(&self) -> &dpm_mdp::RandomizedPolicy {
        &self.policy
    }

    /// Optimal average power.
    #[must_use]
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Average queue length attained (≤ the bound).
    #[must_use]
    pub fn queue_length(&self) -> f64 {
        self.queue_length
    }
}

/// Minimizes average power subject to `E[#requests] ≤ max_queue_length`
/// exactly, via the occupation-measure LP (paper Section IV, first
/// formulation). The optimum may randomize between two mode commands in
/// one state.
///
/// # Errors
///
/// Returns [`DpmError::ConstraintUnsatisfiable`] for an unattainable bound
/// and propagates LP failures.
pub fn constrained_lp(
    system: &PmSystem,
    max_queue_length: f64,
) -> Result<ConstrainedLpSolution, DpmError> {
    if !(max_queue_length > 0.0 && max_queue_length.is_finite()) {
        return Err(DpmError::InvalidModel {
            reason: format!("queue-length bound {max_queue_length} must be positive"),
        });
    }
    // The occupation-measure LP mixes every rate in one constraint matrix,
    // so the default 1e6 instantaneous-switch surrogate would dominate its
    // conditioning. Re-posing the model with a gentler surrogate costs the
    // same O(μ/rate) modeling error the surrogate always has, while keeping
    // the simplex accurate.
    let lp_system = system
        .to_builder()
        .instant_rate(1_000.0 * system.provider().max_rate())
        .build()?;
    let mdp = lp_system.ctmdp(0.0)?; // cost = power only
    let delay = lp_system.delay_costs();
    match dpm_mdp::lp::solve_constrained_average(&mdp, &delay, max_queue_length) {
        Ok(solution) => {
            let queue_length = solution.average_of(&delay);
            Ok(ConstrainedLpSolution {
                power: solution.average_cost(),
                queue_length,
                policy: solution.policy().clone(),
            })
        }
        Err(dpm_mdp::MdpError::Infeasible) => Err(DpmError::ConstraintUnsatisfiable {
            bound: max_queue_length,
        }),
        Err(e) => Err(DpmError::Mdp(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpModel, SrModel};

    fn paper_system() -> PmSystem {
        PmSystem::builder()
            .provider(SpModel::dac99_server().unwrap())
            .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(5)
            .build()
            .unwrap()
    }

    #[test]
    fn optimal_frontier_lies_below_every_n_policy() {
        // The paper's headline claim (Figure 4): the optimal power-delay
        // curve lies on or below the N-policy points. In weighted-cost
        // terms: at EVERY weight, the weighted optimum is at least as cheap
        // as every N-policy — i.e. no N-policy point lies below the lower
        // convex hull of the optimal frontier.
        let sys = paper_system();
        let weights = [0.02, 0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 5.0, 20.0, 60.0, 100.0];
        let frontier = sweep(&sys, &weights).unwrap();
        for n in 1..=5 {
            let np = sys
                .evaluate(&PmPolicy::n_policy(&sys, n, 2).unwrap())
                .unwrap();
            for opt in &frontier {
                let w = opt.weight();
                let opt_cost = opt.metrics().power() + w * opt.metrics().queue_length();
                let np_cost = np.power() + w * np.queue_length();
                assert!(
                    opt_cost <= np_cost + 1e-6,
                    "N = {n}, w = {w}: optimal {opt_cost} vs N-policy {np_cost}"
                );
            }
        }
        // Concrete domination spot check: the greedy N = 1 policy wakes the
        // moment anything arrives, which the weighted optimum at w ~ 60
        // strictly beats (same latency at lower power).
        let np1 = sys
            .evaluate(&PmPolicy::n_policy(&sys, 1, 2).unwrap())
            .unwrap();
        let dominated = frontier.iter().any(|opt| {
            opt.metrics().power() <= np1.power()
                && opt.metrics().queue_length() <= np1.queue_length() + 1e-6
        });
        assert!(
            dominated,
            "N = 1 (power {:.3}, queue {:.3}) not dominated",
            np1.power(),
            np1.queue_length()
        );
    }

    #[test]
    fn frontier_is_monotone_in_weight() {
        let sys = paper_system();
        let frontier = sweep(&sys, &[0.05, 0.5, 5.0, 50.0]).unwrap();
        for pair in frontier.windows(2) {
            assert!(pair[1].metrics().queue_length() <= pair[0].metrics().queue_length() + 1e-9);
            assert!(pair[1].metrics().power() >= pair[0].metrics().power() - 1e-9);
        }
    }

    #[test]
    fn optimal_policy_beats_heuristics_on_weighted_cost() {
        let sys = paper_system();
        let w = 1.0;
        let opt = optimal_policy(&sys, w).unwrap();
        let opt_cost = opt.metrics().power() + w * opt.metrics().queue_length();
        for heuristic in [
            PmPolicy::greedy(&sys).unwrap(),
            PmPolicy::always_on(&sys, 0).unwrap(),
            PmPolicy::n_policy(&sys, 3, 2).unwrap(),
        ] {
            let m = sys.evaluate(&heuristic).unwrap();
            let cost = m.power() + w * m.queue_length();
            assert!(
                opt_cost <= cost + 1e-7,
                "optimal {opt_cost} worse than heuristic {cost}"
            );
        }
    }

    #[test]
    fn constrained_policy_meets_bound() {
        let sys = paper_system();
        let bound = 1.0;
        let sol = constrained_policy(&sys, bound).unwrap();
        assert!(sol.metrics().queue_length() <= bound + 1e-9);
        // And saves power versus always-on.
        let on = sys
            .evaluate(&PmPolicy::always_on(&sys, 0).unwrap())
            .unwrap();
        assert!(sol.metrics().power() < on.power());
    }

    #[test]
    fn constrained_lp_is_at_least_as_good_as_bisection() {
        let sys = paper_system();
        let bound = 1.0;
        let deterministic = constrained_policy(&sys, bound).unwrap();
        let exact = constrained_lp(&sys, bound).unwrap();
        assert!(exact.queue_length() <= bound + 1e-6);
        assert!(exact.power() <= deterministic.metrics().power() + 1e-6);
    }

    #[test]
    fn unattainable_bound_is_reported() {
        let sys = paper_system();
        assert!(matches!(
            constrained_lp(&sys, 1e-6),
            Err(DpmError::ConstraintUnsatisfiable { .. })
        ));
        assert!(constrained_policy(&sys, -1.0).is_err());
        assert!(constrained_lp(&sys, f64::NAN).is_err());
    }

    #[test]
    fn zero_weight_minimizes_power_only() {
        let sys = paper_system();
        let sol = optimal_policy(&sys, 0.0).unwrap();
        // Pure power minimization sleeps as much as the forced-wakeup rule
        // allows: far below always-on, and no frontier point is cheaper.
        assert!(sol.metrics().power() < 10.0);
        for w in [0.5, 2.0, 20.0] {
            let other = optimal_policy(&sys, w).unwrap();
            assert!(other.metrics().power() >= sol.metrics().power() - 1e-9);
        }
    }

    #[test]
    fn iterations_are_reported() {
        let sys = paper_system();
        let sol = optimal_policy(&sys, 0.5).unwrap();
        assert!(sol.iterations() >= 1);
        assert_eq!(sol.weight(), 0.5);
        // Convergence diagnostics ride along with the solution.
        assert!(sol.eval_residual() < 1e-8);
        assert_eq!(sol.eval_timings().len(), sol.iterations());
    }
}
