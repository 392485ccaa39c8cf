//! Relative value iteration for average-cost CTMDPs via uniformization.
//!
//! A CTMDP with bounded exit rates is converted into an equivalent
//! discrete-time MDP by *uniformization*: with `Λ ≥ max exit rate`,
//!
//! ```text
//! p̃(j | i, a) = δ_{ij} + s_{i,j}^a / Λ,      c̃(i, a) = c_i^a / Λ,
//! ```
//!
//! and the continuous-time average cost is `Λ` times the discrete-time
//! average cost per step. Relative value iteration on the uniformized MDP
//! then provides span-based upper and lower bounds on the optimal gain —
//! an anytime alternative to policy iteration used by the solver ablation
//! (DESIGN.md, A1).

use dpm_linalg::DVector;

use crate::{Ctmdp, MdpError, Policy};

/// Options for [`solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Iteration cap.
    pub max_iterations: usize,
    /// Stop when the span of the value update is below this (in
    /// continuous-time cost units).
    pub tolerance: f64,
    /// Extra margin on the uniformization constant (must be > 1 so the
    /// uniformized chain is aperiodic).
    pub uniformization_margin: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_iterations: 1_000_000,
            tolerance: 1e-9,
            uniformization_margin: 1.05,
        }
    }
}

/// Result of relative value iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    policy: Policy,
    gain_lower: f64,
    gain_upper: f64,
    iterations: usize,
}

impl Solution {
    /// The greedy policy at termination (average-cost optimal once the
    /// bounds pinch).
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Lower bound on the optimal average cost.
    #[must_use]
    pub fn gain_lower(&self) -> f64 {
        self.gain_lower
    }

    /// Upper bound on the optimal average cost.
    #[must_use]
    pub fn gain_upper(&self) -> f64 {
        self.gain_upper
    }

    /// Midpoint gain estimate.
    #[must_use]
    pub fn gain(&self) -> f64 {
        0.5 * (self.gain_lower + self.gain_upper)
    }

    /// Iterations performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Runs relative value iteration until the span of the gain bounds drops
/// below `options.tolerance`.
///
/// # Errors
///
/// Returns [`MdpError::InvalidParameter`] for a margin ≤ 1, `NaN` or `∞`,
/// a tolerance that is not positive, or a process with zero maximum exit
/// rate, and [`MdpError::NotConverged`] when the iteration cap is reached
/// (periodic structures can stall relative VI; the margin > 1 rules that
/// out for the uniformized chain itself).
///
/// # Examples
///
/// ```
/// use dpm_mdp::{average, value_iteration, Ctmdp};
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// let mut b = Ctmdp::builder(2);
/// b.action(0, "run", 1.0, &[(1, 1.0)])?;
/// b.action(1, "slow", 5.0, &[(0, 1.0)])?;
/// b.action(1, "fast", 9.0, &[(0, 10.0)])?;
/// let mdp = b.build()?;
/// let vi = value_iteration::solve(&mdp, &value_iteration::Options::default())?;
/// let pi = average::policy_iteration_multichain(
///     &mdp,
///     mdp.min_cost_policy(),
///     &average::Options::default(),
/// )?;
/// assert!((vi.gain() - pi.gain_from(0)).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn solve(mdp: &Ctmdp, options: &Options) -> Result<Solution, MdpError> {
    let margin = options.uniformization_margin;
    if !(margin > 1.0 && margin.is_finite()) {
        return Err(MdpError::InvalidParameter {
            reason: format!("uniformization margin {margin} must be finite and exceed 1"),
        });
    }
    if options.tolerance <= 0.0 || options.tolerance.is_nan() {
        return Err(MdpError::InvalidParameter {
            reason: format!("tolerance {} must be positive", options.tolerance),
        });
    }
    let n = mdp.n_states();
    let lambda = (0..n)
        .flat_map(|i| mdp.actions(i).iter().map(crate::ActionSpec::exit_rate))
        .fold(0.0f64, f64::max)
        * margin;
    if lambda <= 0.0 {
        return Err(MdpError::InvalidParameter {
            reason: "process has no transitions under any action".to_owned(),
        });
    }

    // One Bellman backup of the uniformized MDP.
    let backup = |values: &DVector| -> (DVector, Policy) {
        let mut next = DVector::zeros(n);
        let mut greedy = vec![0usize; n];
        for i in 0..n {
            let mut best = f64::INFINITY;
            for (a, spec) in mdp.actions(i).iter().enumerate() {
                // c̃ + Σ_j p̃(j|i,a) v_j
                //   = c/Λ + v_i + Σ_(to,r) (r/Λ)(v_to − v_i)
                let mut q = spec.cost_rate() / lambda + values[i];
                for &(to, rate) in spec.rates() {
                    q += rate / lambda * (values[to] - values[i]);
                }
                if q < best {
                    best = q;
                    greedy[i] = a;
                }
            }
            next[i] = best;
        }
        (next, Policy::new(greedy))
    };

    let mut values = DVector::zeros(n);
    for iteration in 1..=options.max_iterations {
        let (mut next, greedy) = backup(&values);
        // Gain bounds from the update span (per uniformized step).
        let delta = &next - &values;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for d in delta.iter() {
            lo = lo.min(d);
            hi = hi.max(d);
        }
        let gain_lower = lambda * lo;
        let gain_upper = lambda * hi;
        if gain_upper - gain_lower <= options.tolerance {
            return Ok(Solution {
                policy: greedy,
                gain_lower,
                gain_upper,
                iterations: iteration,
            });
        }
        // Relative normalization keeps the values bounded.
        let shift = next[0];
        for v in next.as_mut_slice() {
            *v -= shift;
        }
        values = next;
    }
    Err(MdpError::NotConverged {
        iterations: options.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average;

    fn solve_pi(mdp: &Ctmdp) -> average::MultichainSolution {
        average::policy_iteration_multichain(
            mdp,
            mdp.min_cost_policy(),
            &average::Options::default(),
        )
        .unwrap()
    }

    fn repair_mdp() -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 9.0, &[(0, 10.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bounds_pinch_on_the_optimal_gain() {
        let mdp = repair_mdp();
        let vi = solve(&mdp, &Options::default()).unwrap();
        let pi = solve_pi(&mdp);
        assert!(vi.gain_lower() <= pi.gain_from(0) + 1e-8);
        assert!(vi.gain_upper() >= pi.gain_from(0) - 1e-8);
        assert!((vi.gain() - pi.gain_from(0)).abs() < 1e-7);
        assert_eq!(vi.policy(), pi.policy());
    }

    #[test]
    fn works_on_three_state_process() {
        let mut b = Ctmdp::builder(3);
        b.action(0, "a", 0.0, &[(1, 2.0)]).unwrap();
        b.action(1, "risky", 0.0, &[(2, 1.0)]).unwrap();
        b.action(1, "safe", 3.0, &[(0, 1.0)]).unwrap();
        b.action(2, "recover", 50.0, &[(0, 0.2)]).unwrap();
        let mdp = b.build().unwrap();
        let vi = solve(&mdp, &Options::default()).unwrap();
        let pi = solve_pi(&mdp);
        assert!((vi.gain() - pi.gain_from(0)).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_margin() {
        let mdp = repair_mdp();
        for margin in [1.0, 0.5, f64::NAN, f64::INFINITY] {
            let options = Options {
                uniformization_margin: margin,
                ..Options::default()
            };
            assert!(
                matches!(
                    solve(&mdp, &options),
                    Err(MdpError::InvalidParameter { .. })
                ),
                "margin {margin}"
            );
        }
    }

    #[test]
    fn rejects_a_tolerance_that_is_not_positive() {
        let mdp = repair_mdp();
        for tolerance in [0.0, -1e-9, f64::NAN] {
            let options = Options {
                tolerance,
                ..Options::default()
            };
            assert!(
                matches!(
                    solve(&mdp, &options),
                    Err(MdpError::InvalidParameter { .. })
                ),
                "tolerance {tolerance}"
            );
        }
    }

    #[test]
    fn tiny_budget_reports_not_converged() {
        let mdp = repair_mdp();
        let options = Options {
            max_iterations: 2,
            tolerance: 1e-14,
            ..Options::default()
        };
        assert!(matches!(
            solve(&mdp, &options),
            Err(MdpError::NotConverged { iterations: 2 })
        ));
    }

    #[test]
    fn iteration_count_reported() {
        let mdp = repair_mdp();
        let vi = solve(&mdp, &Options::default()).unwrap();
        assert!(vi.iterations() > 1);
    }
}
