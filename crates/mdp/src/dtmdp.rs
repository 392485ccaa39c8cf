//! Discrete-time Markov decision processes.
//!
//! This module serves two roles:
//!
//! 1. It is the faithful substrate for the **DAC'98 baseline** (Paleologo et
//!    al., "Policy Optimization for Dynamic Power Management"): time sliced
//!    into intervals of length `L`, per-slice transition probabilities, a
//!    policy computed by LP or policy iteration — the formulation whose
//!    shortcomings (synchronous decisions, lumped busy/idle state) motivate
//!    the paper.
//! 2. [`Dtmdp::from_uniformized`] converts any [`Ctmdp`] into an equivalent
//!    discrete-time process, connecting the two solver families.

use std::fmt;

use dpm_ctmc::Dtmc;
use dpm_linalg::{DMatrix, DVector};

use crate::{Ctmdp, MdpError, Policy};

/// Probability-sum validation slack.
const PROB_TOL: f64 = 1e-9;

/// One action of a [`Dtmdp`]: label, per-step cost, and a full transition
/// distribution (self-transitions allowed, unlike the continuous-time
/// builder).
#[derive(Debug, Clone, PartialEq)]
struct DtAction {
    label: String,
    cost: f64,
    /// Dense transition probabilities (length = number of states).
    probabilities: Vec<f64>,
}

/// A discrete-time MDP with per-state finite action sets.
///
/// # Examples
///
/// ```
/// use dpm_mdp::Dtmdp;
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// let mut b = Dtmdp::builder(2);
/// b.action(0, "stay", 1.0, &[0.9, 0.1])?;
/// b.action(0, "push", 2.0, &[0.5, 0.5])?;
/// b.action(1, "return", 0.0, &[1.0, 0.0])?;
/// let mdp = b.build()?;
/// assert_eq!(mdp.n_states(), 2);
/// assert_eq!(mdp.n_actions(0), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmdp {
    actions: Vec<Vec<DtAction>>,
}

/// Builder for [`Dtmdp`] processes.
#[derive(Debug, Clone)]
pub struct DtmdpBuilder {
    actions: Vec<Vec<DtAction>>,
}

impl DtmdpBuilder {
    /// Creates a builder for `n_states` states.
    #[must_use]
    pub fn new(n_states: usize) -> Self {
        DtmdpBuilder {
            actions: vec![Vec::new(); n_states],
        }
    }

    /// Adds an action with a full per-state transition distribution.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] or [`MdpError::InvalidAction`]
    /// for bad distributions (wrong length, negative entries, not summing
    /// to one) or non-finite costs.
    pub fn action(
        &mut self,
        state: usize,
        label: impl Into<String>,
        cost: f64,
        probabilities: &[f64],
    ) -> Result<&mut Self, MdpError> {
        let n = self.actions.len();
        if state >= n {
            return Err(MdpError::StateOutOfRange { state, n_states: n });
        }
        if !cost.is_finite() {
            return Err(MdpError::InvalidAction {
                state,
                reason: format!("cost {cost} is not finite"),
            });
        }
        if probabilities.len() != n {
            return Err(MdpError::InvalidAction {
                state,
                reason: format!("distribution length {} != {n}", probabilities.len()),
            });
        }
        let sum: f64 = probabilities.iter().sum();
        if probabilities
            .iter()
            .any(|&p| !(0.0..=1.0 + PROB_TOL).contains(&p))
            || (sum - 1.0).abs() > PROB_TOL
        {
            return Err(MdpError::InvalidAction {
                state,
                reason: format!("invalid distribution (sum {sum})"),
            });
        }
        self.actions[state].push(DtAction {
            label: label.into(),
            cost,
            probabilities: probabilities.to_vec(),
        });
        Ok(self)
    }

    /// Finalizes the process.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::NoActions`] if any state lacks actions.
    pub fn build(self) -> Result<Dtmdp, MdpError> {
        if self.actions.is_empty() {
            return Err(MdpError::NoActions { state: 0 });
        }
        for (state, acts) in self.actions.iter().enumerate() {
            if acts.is_empty() {
                return Err(MdpError::NoActions { state });
            }
        }
        Ok(Dtmdp {
            actions: self.actions,
        })
    }
}

/// Result of average-cost policy iteration on a [`Dtmdp`].
#[derive(Debug, Clone, PartialEq)]
pub struct DtSolution {
    policy: Policy,
    gain: f64,
    bias: DVector,
    iterations: usize,
}

impl DtSolution {
    /// The optimal stationary deterministic policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Optimal average cost per step.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Bias vector (zero at state 0).
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }

    /// Improvement rounds performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl Dtmdp {
    /// Starts building a process with `n_states` states.
    #[must_use]
    pub fn builder(n_states: usize) -> DtmdpBuilder {
        DtmdpBuilder::new(n_states)
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.actions.len()
    }

    /// Number of actions in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn n_actions(&self, state: usize) -> usize {
        self.actions[state].len()
    }

    /// Label of `action` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn action_label(&self, state: usize, action: usize) -> &str {
        &self.actions[state][action].label
    }

    /// Per-step cost of `action` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn cost(&self, state: usize, action: usize) -> f64 {
        self.actions[state][action].cost
    }

    /// Transition distribution of `action` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn probabilities(&self, state: usize, action: usize) -> &[f64] {
        &self.actions[state][action].probabilities
    }

    /// Uniformizes a continuous-time process into an equivalent
    /// discrete-time one, returning the process and the uniformization
    /// constant `Λ` (so continuous gain = `Λ ×` discrete gain; per-step
    /// costs are pre-divided by `Λ`).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidParameter`] for `margin ≤ 1` or a process
    /// with no transitions.
    pub fn from_uniformized(ctmdp: &Ctmdp, margin: f64) -> Result<(Self, f64), MdpError> {
        if margin <= 1.0 {
            return Err(MdpError::InvalidParameter {
                reason: format!("uniformization margin {margin} must exceed 1"),
            });
        }
        let n = ctmdp.n_states();
        let lambda = (0..n)
            .flat_map(|i| ctmdp.actions(i).iter().map(crate::ActionSpec::exit_rate))
            .fold(0.0f64, f64::max)
            * margin;
        if lambda <= 0.0 {
            return Err(MdpError::InvalidParameter {
                reason: "process has no transitions under any action".to_owned(),
            });
        }
        let mut b = DtmdpBuilder::new(n);
        for i in 0..n {
            for spec in ctmdp.actions(i) {
                let mut p = vec![0.0; n];
                p[i] = 1.0 - spec.exit_rate() / lambda;
                for &(to, rate) in spec.rates() {
                    p[to] += rate / lambda;
                }
                b.action(i, spec.label(), spec.cost_rate() / lambda, &p)?;
            }
        }
        Ok((b.build()?, lambda))
    }

    /// Validates a policy against this process.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidPolicy`] on mismatch.
    pub fn check_policy(&self, policy: &Policy) -> Result<(), MdpError> {
        if policy.len() != self.n_states() {
            return Err(MdpError::InvalidPolicy {
                reason: format!(
                    "policy has {} entries for {} states",
                    policy.len(),
                    self.n_states()
                ),
            });
        }
        for (state, &a) in policy.actions().iter().enumerate() {
            if a >= self.actions[state].len() {
                return Err(MdpError::InvalidPolicy {
                    reason: format!("action {a} out of range at state {state}"),
                });
            }
        }
        Ok(())
    }

    /// Transition matrix of the chain induced by `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidPolicy`] on mismatch and propagates
    /// stochastic-matrix validation.
    pub fn chain_for(&self, policy: &Policy) -> Result<Dtmc, MdpError> {
        self.check_policy(policy)?;
        let n = self.n_states();
        let m = DMatrix::from_fn(n, n, |i, j| {
            self.actions[i][policy.action(i)].probabilities[j]
        });
        Dtmc::from_matrix(m).map_err(MdpError::Chain)
    }

    /// Per-state costs under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidPolicy`] on mismatch.
    pub fn costs_for(&self, policy: &Policy) -> Result<DVector, MdpError> {
        self.check_policy(policy)?;
        Ok(DVector::from_fn(self.n_states(), |i| {
            self.actions[i][policy.action(i)].cost
        }))
    }

    /// Long-run average cost per step of `policy`.
    ///
    /// # Errors
    ///
    /// Propagates chain construction and stationary-solver failures.
    pub fn average_cost(&self, policy: &Policy) -> Result<f64, MdpError> {
        let chain = self.chain_for(policy)?;
        let pi = chain.stationary_gth().map_err(MdpError::Chain)?;
        Ok(pi.dot(&self.costs_for(policy)?))
    }

    /// Gain/bias evaluation of `policy`: solves `g + v = c + P v`,
    /// `v[0] = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::NotUnichain`] on singular evaluation equations
    /// and propagates solver failures.
    pub fn evaluate(&self, policy: &Policy) -> Result<(f64, DVector), MdpError> {
        self.check_policy(policy)?;
        let n = self.n_states();
        // Unknowns x = (g, v_1, ..., v_{n-1}), v_0 = 0.
        // Equation i: g + v_i - Σ_j P_ij v_j = c_i.
        let mut a = DMatrix::zeros(n, n);
        let mut b = DVector::zeros(n);
        for i in 0..n {
            a[(i, 0)] = 1.0;
            let probabilities = &self.actions[i][policy.action(i)].probabilities;
            for j in 1..n {
                let mut coeff = -probabilities[j];
                if i == j {
                    coeff += 1.0;
                }
                a[(i, j)] = coeff;
            }
            b[i] = self.actions[i][policy.action(i)].cost;
        }
        let x = match a.lu() {
            Ok(lu) => lu.solve(&b).map_err(MdpError::Numerical)?,
            Err(dpm_linalg::LinalgError::Singular { .. }) => {
                return Err(MdpError::NotUnichain { iteration: 0 })
            }
            Err(e) => return Err(MdpError::Numerical(e)),
        };
        let gain = x[0];
        let bias = DVector::from_fn(n, |j| if j == 0 { 0.0 } else { x[j] });
        Ok((gain, bias))
    }

    /// Average-cost policy iteration (Howard) for unichain discrete-time
    /// processes, starting from the minimum-cost policy.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::NotUnichain`] or [`MdpError::NotConverged`] as
    /// appropriate.
    pub fn policy_iteration(&self, max_iterations: usize) -> Result<DtSolution, MdpError> {
        let n = self.n_states();
        let initial = Policy::new(
            (0..n)
                .map(|i| {
                    (0..self.actions[i].len())
                        .min_by(|&x, &y| {
                            self.actions[i][x]
                                .cost
                                .partial_cmp(&self.actions[i][y].cost)
                                // dpm-lint: allow(no_panic, reason = "costs are validated finite when the DTMDP is constructed")
                                .expect("finite costs")
                        })
                        // dpm-lint: allow(no_panic, reason = "DTMDP validation guarantees a non-empty action set per state")
                        .expect("non-empty actions")
                })
                .collect(),
        );
        self.policy_iteration_from(initial, max_iterations)
    }

    /// Average-cost policy iteration from an explicit starting policy —
    /// use a policy whose chain is unichain when the min-cost default
    /// would decompose the chain.
    ///
    /// # Errors
    ///
    /// As [`Dtmdp::policy_iteration`], plus [`MdpError::InvalidPolicy`] for
    /// a mismatched start.
    pub fn policy_iteration_from(
        &self,
        initial: Policy,
        max_iterations: usize,
    ) -> Result<DtSolution, MdpError> {
        self.check_policy(&initial)?;
        let n = self.n_states();
        let mut policy = initial;
        for iteration in 1..=max_iterations {
            let (gain, bias) = self.evaluate(&policy).map_err(|e| match e {
                MdpError::NotUnichain { .. } => MdpError::NotUnichain { iteration },
                other => other,
            })?;
            let mut improved = false;
            let mut next = policy.clone();
            for state in 0..n {
                let q_of = |action: usize| -> f64 {
                    let act = &self.actions[state][action];
                    act.cost
                        + act
                            .probabilities
                            .iter()
                            .zip(bias.as_slice())
                            .map(|(p, v)| p * v)
                            .sum::<f64>()
                };
                let incumbent = q_of(policy.action(state));
                let mut best_action = policy.action(state);
                let mut best_q = incumbent;
                for action in 0..self.actions[state].len() {
                    if action == policy.action(state) {
                        continue;
                    }
                    let q = q_of(action);
                    if q < best_q - 1e-10 {
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
                return Ok(DtSolution {
                    policy,
                    gain,
                    bias,
                    iterations: iteration,
                });
            }
            policy = next;
        }
        Err(MdpError::NotConverged {
            iterations: max_iterations,
        })
    }
}

impl Dtmdp {
    /// Relative value iteration for the average cost criterion: Bellman
    /// backups with span-based gain bounds, stopping when the bounds pinch
    /// within `tolerance`.
    ///
    /// Requires the optimal chain to be aperiodic (uniformized processes
    /// always are); periodic structures may oscillate.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::NotConverged`] when the iteration cap is hit.
    pub fn value_iteration(
        &self,
        tolerance: f64,
        max_iterations: usize,
    ) -> Result<DtSolution, MdpError> {
        if tolerance <= 0.0 || tolerance.is_nan() {
            return Err(MdpError::InvalidParameter {
                reason: format!("tolerance {tolerance} must be positive"),
            });
        }
        let n = self.n_states();
        let mut values = DVector::zeros(n);
        for iteration in 1..=max_iterations {
            let mut next = DVector::zeros(n);
            let mut greedy = vec![0usize; n];
            for i in 0..n {
                let mut best = f64::INFINITY;
                for (a, act) in self.actions[i].iter().enumerate() {
                    let q: f64 = act.cost
                        + act
                            .probabilities
                            .iter()
                            .zip(values.as_slice())
                            .map(|(p, v)| p * v)
                            .sum::<f64>();
                    if q < best {
                        best = q;
                        greedy[i] = a;
                    }
                }
                next[i] = best;
            }
            let delta = &next - &values;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for d in delta.iter() {
                lo = lo.min(d);
                hi = hi.max(d);
            }
            if hi - lo <= tolerance {
                let policy = Policy::new(greedy);
                let gain = 0.5 * (lo + hi);
                // Bias relative to state 0.
                let shift = next[0];
                let bias = next.map(|v| v - shift);
                return Ok(DtSolution {
                    policy,
                    gain,
                    bias,
                    iterations: iteration,
                });
            }
            let shift = next[0];
            values = next.map(|v| v - shift);
        }
        Err(MdpError::NotConverged {
            iterations: max_iterations,
        })
    }

    /// Solves the average-cost problem via the occupation-measure LP
    /// (the solution technique of the DAC'98 baseline): variables
    /// `x_{i,a}` with `Σ_a x_{j,a} = Σ_{i,a} x_{i,a} P^a(i,j)` and
    /// `Σ x = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::Infeasible`] for a malformed process and
    /// propagates LP failures.
    pub fn lp_average(&self) -> Result<(crate::RandomizedPolicy, f64), MdpError> {
        let n = self.n_states();
        let mut index: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            for a in 0..self.actions[i].len() {
                index.push((i, a));
            }
        }
        let costs: Vec<f64> = index
            .iter()
            .map(|&(i, a)| self.actions[i][a].cost)
            .collect();
        // dpm-lint: allow(no_panic, reason = "the MDP was validated non-empty before the LP is assembled")
        let mut problem = dpm_lp::Problem::minimize(costs).expect("at least one state-action pair");
        for j in 0..n {
            let coeffs: Vec<f64> = index
                .iter()
                .map(|&(i, a)| {
                    let inflow = self.actions[i][a].probabilities[j];
                    let outflow = if i == j { 1.0 } else { 0.0 };
                    inflow - outflow
                })
                .collect();
            problem
                .add_constraint(coeffs, dpm_lp::Relation::Eq, 0.0)
                // dpm-lint: allow(no_panic, reason = "the row is built with exactly one coefficient per LP variable just above")
                .expect("arity matches");
        }
        problem
            .add_constraint(vec![1.0; index.len()], dpm_lp::Relation::Eq, 1.0)
            // dpm-lint: allow(no_panic, reason = "the row is built with exactly one coefficient per LP variable just above")
            .expect("arity matches");
        match dpm_lp::solve(&problem).map_err(MdpError::Lp)? {
            dpm_lp::Outcome::Optimal(solution) => {
                let mut weights: Vec<Vec<f64>> =
                    (0..n).map(|i| vec![0.0; self.actions[i].len()]).collect();
                for (k, &(i, a)) in index.iter().enumerate() {
                    weights[i][a] = solution.variables()[k].max(0.0);
                }
                for w in &mut weights {
                    let total: f64 = w.iter().sum();
                    if total <= 1e-9 {
                        w[0] = 1.0;
                    }
                }
                Ok((crate::RandomizedPolicy::new(weights), solution.objective()))
            }
            dpm_lp::Outcome::Infeasible => Err(MdpError::Infeasible),
            dpm_lp::Outcome::Unbounded => Err(MdpError::InvalidParameter {
                reason: "DTMDP occupation LP unbounded; process is malformed".to_owned(),
            }),
        }
    }
}

impl fmt::Display for Dtmdp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dtmdp: {} states, {} state-action pairs",
            self.n_states(),
            self.actions.iter().map(Vec::len).sum::<usize>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::average;

    fn toy() -> Dtmdp {
        let mut b = Dtmdp::builder(2);
        b.action(0, "stay", 1.0, &[0.9, 0.1]).unwrap();
        b.action(0, "push", 2.0, &[0.5, 0.5]).unwrap();
        b.action(1, "return", 0.0, &[1.0, 0.0]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_validates() {
        let mut b = Dtmdp::builder(2);
        assert!(b.action(5, "x", 0.0, &[1.0, 0.0]).is_err());
        assert!(b.action(0, "x", f64::NAN, &[1.0, 0.0]).is_err());
        assert!(b.action(0, "x", 0.0, &[0.5]).is_err());
        assert!(b.action(0, "x", 0.0, &[0.5, 0.4]).is_err());
        assert!(b.action(0, "x", 0.0, &[-0.1, 1.1]).is_err());
        assert!(Dtmdp::builder(1).build().is_err());
    }

    #[test]
    fn accessors() {
        let m = toy();
        assert_eq!(m.n_actions(0), 2);
        assert_eq!(m.action_label(0, 1), "push");
        assert_eq!(m.cost(0, 1), 2.0);
        assert_eq!(m.probabilities(1, 0), &[1.0, 0.0]);
        assert!(m.to_string().contains("2 states"));
    }

    #[test]
    fn evaluation_matches_stationary_average() {
        let m = toy();
        let p = Policy::new(vec![0, 0]);
        let (gain, _) = m.evaluate(&p).unwrap();
        let direct = m.average_cost(&p).unwrap();
        assert!((gain - direct).abs() < 1e-10);
    }

    #[test]
    fn policy_iteration_finds_optimum() {
        let m = toy();
        let sol = m.policy_iteration(100).unwrap();
        let mut best = f64::INFINITY;
        for a0 in 0..2 {
            let p = Policy::new(vec![a0, 0]);
            best = best.min(m.average_cost(&p).unwrap());
        }
        assert!((sol.gain() - best).abs() < 1e-10);
        assert!(sol.iterations() >= 1);
        assert_eq!(sol.bias()[0], 0.0);
    }

    #[test]
    fn uniformization_preserves_optimal_gain() {
        // Continuous process solved directly vs via uniformized DTMDP.
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 9.0, &[(0, 10.0)]).unwrap();
        let ctmdp = b.build().unwrap();
        let ct = average::policy_iteration_multichain(
            &ctmdp,
            ctmdp.min_cost_policy(),
            &average::Options::default(),
        )
        .unwrap();
        let (dt, lambda) = Dtmdp::from_uniformized(&ctmdp, 1.05).unwrap();
        let dt_sol = dt.policy_iteration(100).unwrap();
        assert!((dt_sol.gain() * lambda - ct.gain_from(0)).abs() < 1e-8);
        assert_eq!(dt_sol.policy(), ct.policy());
    }

    #[test]
    fn uniformization_rejects_bad_margin() {
        let mut b = Ctmdp::builder(1);
        b.action(0, "idle", 1.0, &[]).unwrap();
        let ctmdp = b.build().unwrap();
        assert!(Dtmdp::from_uniformized(&ctmdp, 1.0).is_err());
        // No transitions at all -> cannot uniformize.
        assert!(Dtmdp::from_uniformized(&ctmdp, 1.1).is_err());
    }

    #[test]
    fn chain_for_produces_valid_dtmc() {
        let m = toy();
        let chain = m.chain_for(&Policy::new(vec![1, 0])).unwrap();
        assert_eq!(chain.probability(0, 1), 0.5);
    }

    #[test]
    fn policy_validation() {
        let m = toy();
        assert!(m.check_policy(&Policy::new(vec![0])).is_err());
        assert!(m.check_policy(&Policy::new(vec![0, 3])).is_err());
    }
}

#[cfg(test)]
mod solver_suite_tests {
    use super::*;

    fn toy() -> Dtmdp {
        let mut b = Dtmdp::builder(2);
        b.action(0, "stay", 1.0, &[0.9, 0.1]).unwrap();
        b.action(0, "push", 2.0, &[0.5, 0.5]).unwrap();
        b.action(1, "return", 0.0, &[1.0, 0.0]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn value_iteration_matches_policy_iteration() {
        let m = toy();
        let pi = m.policy_iteration(100).unwrap();
        let vi = m.value_iteration(1e-10, 1_000_000).unwrap();
        assert!((vi.gain() - pi.gain()).abs() < 1e-8);
        assert_eq!(vi.policy(), pi.policy());
    }

    #[test]
    fn lp_matches_policy_iteration() {
        let m = toy();
        let pi = m.policy_iteration(100).unwrap();
        let (policy, cost) = m.lp_average().unwrap();
        assert!((cost - pi.gain()).abs() < 1e-7);
        assert_eq!(&policy.to_deterministic(), pi.policy());
    }

    #[test]
    fn policy_iteration_from_respects_start() {
        let m = toy();
        let from_push = m
            .policy_iteration_from(Policy::new(vec![1, 0]), 100)
            .unwrap();
        let default = m.policy_iteration(100).unwrap();
        assert!((from_push.gain() - default.gain()).abs() < 1e-10);
        assert!(m
            .policy_iteration_from(Policy::new(vec![5, 0]), 100)
            .is_err());
    }

    #[test]
    fn value_iteration_validates_tolerance() {
        assert!(toy().value_iteration(0.0, 10).is_err());
    }

    #[test]
    fn uniformized_suite_agrees_with_continuous_time() {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 9.0, &[(0, 10.0)]).unwrap();
        let ctmdp = b.build().unwrap();
        let ct = crate::average::policy_iteration_multichain(
            &ctmdp,
            ctmdp.min_cost_policy(),
            &crate::average::Options::default(),
        )
        .unwrap()
        .gain_from(0);
        let (dt, lambda) = Dtmdp::from_uniformized(&ctmdp, 1.05).unwrap();
        let vi = dt.value_iteration(1e-12, 10_000_000).unwrap();
        let (_, lp_cost) = dt.lp_average().unwrap();
        assert!((vi.gain() * lambda - ct).abs() < 1e-6);
        assert!((lp_cost * lambda - ct).abs() < 1e-6);
    }
}
