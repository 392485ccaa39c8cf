//! Linear-programming solution of average-cost CTMDPs via occupation
//! measures.
//!
//! This is the solution technique of Paleologo et al. (DAC 1998) that the
//! paper's policy-iteration algorithm is compared against, and it is also
//! the *exact* way to solve the performance-constrained formulation of
//! Section IV:
//!
//! ```text
//! min  Σ_{i,a} x_{i,a} c_i^a
//! s.t. Σ_{i,a} x_{i,a} s_{i,j}^a = 0            for every state j
//!      Σ_{i,a} x_{i,a} = 1
//!      Σ_{i,a} x_{i,a} d_i ≤ D_M                (optional constraint)
//!      x ≥ 0
//! ```
//!
//! The variable `x_{i,a}` is the long-run fraction of time spent in state
//! `i` while taking action `a`. Without the performance constraint a basic
//! optimal solution is deterministic; with it, the optimal policy may
//! randomize in one state — exactly the structure the paper's Figure 4
//! frontier exhibits between adjacent deterministic policies.

use dpm_lp::{Outcome, Problem, Relation};

use crate::{Ctmdp, MdpError, RandomizedPolicy};

/// Mass below which a state-action frequency is treated as zero when
/// extracting a policy.
const MASS_EPS: f64 = 1e-9;

/// Result of an occupation-measure LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    policy: RandomizedPolicy,
    average_cost: f64,
    occupation: Vec<Vec<f64>>,
    pivots: usize,
}

impl LpSolution {
    /// The optimal (possibly randomized) stationary policy.
    #[must_use]
    pub fn policy(&self) -> &RandomizedPolicy {
        &self.policy
    }

    /// Optimal average cost per unit time.
    #[must_use]
    pub fn average_cost(&self) -> f64 {
        self.average_cost
    }

    /// Raw state-action occupation frequencies `x_{i,a}`.
    #[must_use]
    pub fn occupation(&self) -> &[Vec<f64>] {
        &self.occupation
    }

    /// Long-run average of a per-state quantity `d` under the optimal
    /// occupation measure.
    ///
    /// # Panics
    ///
    /// Panics if `d.len()` differs from the state count.
    #[must_use]
    pub fn average_of(&self, d: &[f64]) -> f64 {
        assert_eq!(d.len(), self.occupation.len(), "length mismatch");
        self.occupation
            .iter()
            .zip(d)
            .map(|(acts, &di)| di * acts.iter().sum::<f64>())
            .sum()
    }

    /// Simplex pivots used.
    #[must_use]
    pub fn pivots(&self) -> usize {
        self.pivots
    }
}

fn build_problem(mdp: &Ctmdp) -> (Problem, Vec<(usize, usize)>) {
    let n = mdp.n_states();
    // Flatten state-action pairs.
    let mut index: Vec<(usize, usize)> = Vec::with_capacity(mdp.n_state_actions());
    for i in 0..n {
        for a in 0..mdp.actions(i).len() {
            index.push((i, a));
        }
    }
    let costs: Vec<f64> = index
        .iter()
        .map(|&(i, a)| mdp.actions(i)[a].cost_rate())
        .collect();
    // dpm-lint: allow(no_panic, reason = "the MDP was validated non-empty before the LP is assembled")
    let mut problem = Problem::minimize(costs).expect("at least one state-action pair");

    // Balance: Σ_{i,a} x_{i,a} G^a(i, j) = 0 for every j.
    for j in 0..n {
        let coeffs: Vec<f64> = index
            .iter()
            .map(|&(i, a)| {
                let spec = &mdp.actions(i)[a];
                if i == j {
                    -spec.exit_rate()
                } else {
                    spec.rate_to(j)
                }
            })
            .collect();
        problem
            .add_constraint(coeffs, Relation::Eq, 0.0)
            // dpm-lint: allow(no_panic, reason = "the row is built with exactly one coefficient per LP variable just above")
            .expect("arity matches");
    }
    // Normalization.
    problem
        .add_constraint(vec![1.0; index.len()], Relation::Eq, 1.0)
        // dpm-lint: allow(no_panic, reason = "the row is built with exactly one coefficient per LP variable just above")
        .expect("arity matches");
    (problem, index)
}

fn extract(mdp: &Ctmdp, index: &[(usize, usize)], solution: &dpm_lp::Solution) -> LpSolution {
    let n = mdp.n_states();
    let mut occupation: Vec<Vec<f64>> = (0..n).map(|i| vec![0.0; mdp.actions(i).len()]).collect();
    for (k, &(i, a)) in index.iter().enumerate() {
        occupation[i][a] = solution.variables()[k].max(0.0);
    }
    let weights: Vec<Vec<f64>> = occupation
        .iter()
        .map(|acts| {
            let total: f64 = acts.iter().sum();
            if total > MASS_EPS {
                acts.clone()
            } else {
                // State unvisited under the optimal measure: the action is
                // irrelevant for the average cost; default to action 0.
                let mut w = vec![0.0; acts.len()];
                w[0] = 1.0;
                w
            }
        })
        .collect();
    LpSolution {
        policy: RandomizedPolicy::new(weights),
        average_cost: solution.objective(),
        occupation,
        pivots: solution.pivots(),
    }
}

/// Solves the unconstrained average-cost problem by LP.
///
/// # Errors
///
/// Returns [`MdpError::Infeasible`] if the balance system is infeasible
/// (cannot happen for a well-formed CTMDP with at least one recurrent
/// policy) and propagates LP failures.
///
/// # Examples
///
/// ```
/// use dpm_mdp::{average, lp, Ctmdp};
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// let mut b = Ctmdp::builder(2);
/// b.action(0, "run", 1.0, &[(1, 1.0)])?;
/// b.action(1, "slow", 5.0, &[(0, 1.0)])?;
/// b.action(1, "fast", 9.0, &[(0, 10.0)])?;
/// let mdp = b.build()?;
/// let via_lp = lp::solve_average(&mdp)?;
/// let via_pi = average::policy_iteration_multichain(
///     &mdp,
///     mdp.min_cost_policy(),
///     &average::Options::default(),
/// )?;
/// assert!((via_lp.average_cost() - via_pi.gain_from(0)).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
pub fn solve_average(mdp: &Ctmdp) -> Result<LpSolution, MdpError> {
    let (problem, index) = build_problem(mdp);
    match dpm_lp::solve(&problem)? {
        Outcome::Optimal(solution) => Ok(extract(mdp, &index, &solution)),
        Outcome::Infeasible => Err(MdpError::Infeasible),
        Outcome::Unbounded => Err(MdpError::InvalidParameter {
            reason: "occupation-measure LP unbounded; process is malformed".to_owned(),
        }),
    }
}

/// Solves the performance-constrained problem
/// `min average cost s.t. average of aux_costs ≤ bound` — the paper's
/// Section IV formulation with `C_pow` as the objective and `C_sq ≤ D_M`
/// as the constraint.
///
/// The optimal policy may be randomized (in at most one state for a single
/// constraint).
///
/// # Errors
///
/// Returns [`MdpError::Infeasible`] if no stationary policy satisfies the
/// bound, [`MdpError::InvalidParameter`] for a wrong-length `aux_costs`,
/// and propagates LP failures.
pub fn solve_constrained_average(
    mdp: &Ctmdp,
    aux_costs: &[f64],
    bound: f64,
) -> Result<LpSolution, MdpError> {
    let n = mdp.n_states();
    if aux_costs.len() != n {
        return Err(MdpError::InvalidParameter {
            reason: format!("aux cost length {} != {n}", aux_costs.len()),
        });
    }
    if !bound.is_finite() {
        return Err(MdpError::InvalidParameter {
            reason: format!("bound {bound} must be finite"),
        });
    }
    let (mut problem, index) = build_problem(mdp);
    let coeffs: Vec<f64> = index.iter().map(|&(i, _)| aux_costs[i]).collect();
    problem
        .add_constraint(coeffs, Relation::Le, bound)
        // dpm-lint: allow(no_panic, reason = "the row is built with exactly one coefficient per LP variable just above")
        .expect("arity matches");
    match dpm_lp::solve(&problem)? {
        Outcome::Optimal(solution) => Ok(extract(mdp, &index, &solution)),
        Outcome::Infeasible => Err(MdpError::Infeasible),
        Outcome::Unbounded => Err(MdpError::InvalidParameter {
            reason: "constrained occupation-measure LP unbounded".to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average;

    fn repair_mdp() -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 9.0, &[(0, 10.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lp_matches_policy_iteration() {
        let mdp = repair_mdp();
        let lp = solve_average(&mdp).unwrap();
        let pi = average::policy_iteration_multichain(
            &mdp,
            mdp.min_cost_policy(),
            &average::Options::default(),
        )
        .unwrap();
        assert!((lp.average_cost() - pi.gain_from(0)).abs() < 1e-8);
        assert_eq!(&lp.policy().to_deterministic(), pi.policy());
    }

    #[test]
    fn occupation_sums_to_one() {
        let lp = solve_average(&repair_mdp()).unwrap();
        let total: f64 = lp.occupation().iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_solution_is_deterministic() {
        let lp = solve_average(&repair_mdp()).unwrap();
        assert!(lp.policy().randomizing_states(1e-7).is_empty());
    }

    #[test]
    fn constrained_matches_unconstrained_when_slack() {
        let mdp = repair_mdp();
        let unconstrained = solve_average(&mdp).unwrap();
        // A bound far above the unconstrained aux value changes nothing.
        let aux = vec![0.0, 1.0]; // fraction of time broken
        let constrained = solve_constrained_average(&mdp, &aux, 10.0).unwrap();
        assert!((constrained.average_cost() - unconstrained.average_cost()).abs() < 1e-8);
    }

    #[test]
    fn tight_constraint_increases_cost_and_randomizes() {
        // Make "fast" repair pricey so the unconstrained optimum is the
        // slow action (half the time broken); a tight bound on time-broken
        // then forces mixing toward the fast repair.
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 30.0, &[(0, 10.0)]).unwrap();
        let mdp = b.build().unwrap();
        let aux = vec![0.0, 1.0];
        let loose = solve_average(&mdp).unwrap();
        // Unconstrained optimum: slow repair, broken half the time.
        assert!((loose.average_of(&aux) - 0.5).abs() < 1e-7);
        // Fast repair attains 1/11 broken, so 0.3 is feasible but tight.
        let bound = 0.3;
        let tight = solve_constrained_average(&mdp, &aux, bound).unwrap();
        assert!(tight.average_cost() > loose.average_cost() + 1e-6);
        assert!(tight.average_of(&aux) <= bound + 1e-7);
        // An active single constraint randomizes in at most one state.
        assert!(tight.policy().randomizing_states(1e-6).len() <= 1);
    }

    #[test]
    fn infeasible_bound_is_detected() {
        let mdp = repair_mdp();
        // Time broken cannot be negative.
        let aux = vec![0.0, 1.0];
        assert!(matches!(
            solve_constrained_average(&mdp, &aux, -0.5),
            Err(MdpError::Infeasible)
        ));
    }

    #[test]
    fn validates_aux_length_and_bound() {
        let mdp = repair_mdp();
        assert!(solve_constrained_average(&mdp, &[0.0], 1.0).is_err());
        assert!(solve_constrained_average(&mdp, &[0.0, 1.0], f64::NAN).is_err());
    }

    #[test]
    fn average_of_recovers_constraint_value() {
        let mdp = repair_mdp();
        let lp = solve_average(&mdp).unwrap();
        let aux = vec![1.0, 0.0];
        let frac_state0 = lp.average_of(&aux);
        assert!(frac_state0 > 0.0 && frac_state0 < 1.0);
    }
}
