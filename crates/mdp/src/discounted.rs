//! Policy iteration for the discounted-cost criterion.
//!
//! The paper's Section II presents two infinite-horizon objectives; this
//! module implements the second, `v_{i,dis}(α) = E ∫ e^{-αt} c dt`. For a
//! stationary policy the value vector solves `(αI − G^δ) v = c^δ`; the
//! optimal stationary policy exists for every `α > 0` (Theorem 2.2, Miller
//! 1968) and is found by policy iteration. As `α → 0`, `α·v` approaches the
//! average cost (`discounted ≈ average` for patient decision makers), which
//! the ablation bench exercises.

use dpm_linalg::{DMatrix, DVector};

use crate::{Ctmdp, MdpError, Policy};

/// Options for [`policy_iteration`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Hard cap on improvement rounds.
    pub max_iterations: usize,
    /// Strict-improvement threshold for replacing an incumbent action.
    pub improvement_tolerance: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_iterations: 1_000,
            improvement_tolerance: 1e-10,
        }
    }
}

/// Result of discounted policy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    policy: Policy,
    values: DVector,
    iterations: usize,
}

impl Solution {
    /// The α-optimal stationary policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Expected discounted cost from each start state.
    #[must_use]
    pub fn values(&self) -> &DVector {
        &self.values
    }

    /// Improvement rounds performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Expected discounted cost of `policy` from every start state:
/// the solution of `(αI − G^δ) v = c^δ`.
///
/// # Errors
///
/// Returns [`MdpError::InvalidParameter`] for `α ≤ 0` and propagates policy
/// and solver failures. The system matrix is strictly diagonally dominant
/// for `α > 0`, so singularity cannot occur.
pub fn evaluate(mdp: &Ctmdp, policy: &Policy, alpha: f64) -> Result<DVector, MdpError> {
    if !(alpha > 0.0 && alpha.is_finite()) {
        return Err(MdpError::InvalidParameter {
            reason: format!("discount rate {alpha} must be positive and finite"),
        });
    }
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    let generator = mdp.generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;
    let a = &DMatrix::identity(n).scaled(alpha) - generator.matrix();
    let v = a.lu()?.solve(&costs)?;
    Ok(v)
}

fn test_quantity(mdp: &Ctmdp, state: usize, action: usize, values: &DVector) -> f64 {
    let spec = &mdp.actions(state)[action];
    let mut q = spec.cost_rate();
    for &(to, rate) in spec.rates() {
        q += rate * (values[to] - values[state]);
    }
    q
}

/// Policy iteration for discount rate `alpha`, starting from the
/// minimum-cost-rate policy.
///
/// # Errors
///
/// As [`evaluate`], plus [`MdpError::NotConverged`] if the improvement cap
/// is hit.
///
/// # Examples
///
/// ```
/// use dpm_mdp::{discounted, Ctmdp};
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// let mut b = Ctmdp::builder(2);
/// b.action(0, "run", 1.0, &[(1, 1.0)])?;
/// b.action(1, "slow", 5.0, &[(0, 1.0)])?;
/// b.action(1, "fast", 9.0, &[(0, 10.0)])?;
/// let mdp = b.build()?;
/// let sol = discounted::policy_iteration(&mdp, 0.1, &discounted::Options::default())?;
/// assert_eq!(sol.policy().len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn policy_iteration(mdp: &Ctmdp, alpha: f64, options: &Options) -> Result<Solution, MdpError> {
    let mut policy = mdp.min_cost_policy();
    for iteration in 1..=options.max_iterations {
        let values = evaluate(mdp, &policy, alpha)?;
        let mut improved = false;
        let mut next = policy.clone();
        for state in 0..mdp.n_states() {
            let incumbent = test_quantity(mdp, state, policy.action(state), &values);
            let mut best_action = policy.action(state);
            let mut best_q = incumbent;
            for action in 0..mdp.actions(state).len() {
                if action == policy.action(state) {
                    continue;
                }
                let q = test_quantity(mdp, state, action, &values);
                if q < best_q - options.improvement_tolerance {
                    best_q = q;
                    best_action = action;
                }
            }
            if best_action != policy.action(state) {
                improved = true;
                next = next.with_action(state, best_action);
            }
        }
        if !improved {
            return Ok(Solution {
                policy,
                values,
                iterations: iteration,
            });
        }
        policy = next;
    }
    Err(MdpError::NotConverged {
        iterations: options.max_iterations,
    })
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
    fn evaluation_satisfies_bellman_fixed_point() {
        let mdp = repair_mdp();
        let policy = Policy::new(vec![0, 1]);
        let alpha = 0.3;
        let v = evaluate(&mdp, &policy, alpha).unwrap();
        // alpha v = c + G v
        let g = mdp.generator_for(&policy).unwrap();
        let c = mdp.cost_rates_for(&policy).unwrap();
        let mut rhs = g.matrix().mul_vec(&v);
        rhs += &c;
        let lhs = v.scaled(alpha);
        assert!((&lhs - &rhs).norm_inf() < 1e-10);
    }

    #[test]
    fn optimal_policy_beats_alternatives() {
        let mdp = repair_mdp();
        let alpha = 0.2;
        let sol = policy_iteration(&mdp, alpha, &Options::default()).unwrap();
        for other in mdp.enumerate_policies() {
            let v = evaluate(&mdp, &other, alpha).unwrap();
            for i in 0..2 {
                assert!(sol.values()[i] <= v[i] + 1e-9);
            }
        }
    }

    #[test]
    fn small_alpha_approaches_average_cost() {
        let mdp = repair_mdp();
        let alpha = 1e-5;
        let dis = policy_iteration(&mdp, alpha, &Options::default()).unwrap();
        let avg = average::policy_iteration_multichain(
            &mdp,
            mdp.min_cost_policy(),
            &average::Options::default(),
        )
        .unwrap();
        // alpha * v_dis -> average gain (Section II: the discounted reward
        // approaches the total expected reward as a -> 0).
        assert!((dis.values()[0] * alpha - avg.gain_from(0)).abs() < 1e-3);
        assert_eq!(dis.policy(), avg.policy());
    }

    #[test]
    fn large_alpha_is_myopic() {
        // Heavy discounting ignores the future: the fast repair's higher
        // immediate cost rate is no longer worth its future savings.
        let mdp = repair_mdp();
        let sol = policy_iteration(&mdp, 1e4, &Options::default()).unwrap();
        assert_eq!(sol.policy().action(1), 0);
    }

    #[test]
    fn rejects_bad_alpha() {
        let mdp = repair_mdp();
        let p = Policy::new(vec![0, 0]);
        assert!(evaluate(&mdp, &p, 0.0).is_err());
        assert!(evaluate(&mdp, &p, -1.0).is_err());
        assert!(evaluate(&mdp, &p, f64::INFINITY).is_err());
    }

    #[test]
    fn values_decrease_with_stronger_discounting() {
        let mdp = repair_mdp();
        let p = Policy::new(vec![0, 0]);
        let v_small = evaluate(&mdp, &p, 0.1).unwrap();
        let v_large = evaluate(&mdp, &p, 1.0).unwrap();
        for i in 0..2 {
            assert!(v_large[i] < v_small[i]);
        }
    }
}
