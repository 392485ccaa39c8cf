//! Howard-style policy iteration for the limiting average cost criterion.
//!
//! This is the "policy iteration algorithm" of the paper's Figure 3 (the
//! paper defers the details to Howard 1960 / Miller 1968). For a stationary
//! policy `δ` the per-state *gains* `g` (average cost per unit time) and
//! the *bias* (relative value) vector `v` solve the evaluation equations
//!
//! ```text
//! G^δ g = 0,    c^δ − g + G^δ v = 0,
//! ```
//!
//! with `v` pinned to zero at the lowest-numbered state of each closed
//! class. [`evaluate_multichain`] solves them through one
//! [`ChainFactors`] of the policy's sparse generator, with no unichain
//! assumption. The improvement step ([`improve`]) first reduces each
//! state's gain drift `Σ_j s_{i,j}^a g_j`, then, among drift-neutral
//! actions, its bias test quantity `c_i^a + Σ_j s_{i,j}^a v_j`;
//! [`policy_iteration_multichain`] stops at a policy that is its own
//! improvement, which is average-cost optimal over all stationary policies
//! (and by Theorem 2.3 of the paper over all piecewise-stationary ones).
//! The converged round's factors stay in the result
//! ([`MultichainSolution::factors`]), so other cost vectors of the optimal
//! policy's chain need no second factorization.
//!
//! [`evaluate`] solves the unichain equations `c − g·1 + G v = 0` by one
//! LU of their dense matrix. It shares no code with [`ChainFactors`] and serves as the
//! independent oracle the tests check it against.

use std::cmp::Ordering;

use dpm_ctmc::stationary::{gain_scale, ChainFactors};
use dpm_ctmc::SparseGenerator;
use dpm_linalg::{DMatrix, DVector, LinalgError};

use crate::{ActionCsr, Ctmdp, MdpError, Policy};

/// Options for [`policy_iteration_multichain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Hard cap on improvement rounds (each round evaluates one policy).
    /// Policy iteration converges in finitely many steps, so this is a
    /// safety net only.
    pub max_iterations: usize,
    /// An action must beat the incumbent by more than this, scaled by
    /// `1 + ‖g‖∞`, to replace it — guards against cycling on ties.
    pub improvement_tolerance: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_iterations: 1_000,
            improvement_tolerance: 1e-9,
        }
    }
}

/// Gain and bias of one unichain policy, from [`evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    gain: f64,
    bias: DVector,
}

impl Evaluation {
    /// Average cost per unit time.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Relative values (bias), zero at the reference state.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }
}

/// `‖c − g + G v‖_∞` over a policy's sparse generator and cost rates,
/// with per-state gains `g`.
fn evaluation_residual(
    generator: &SparseGenerator,
    costs: &DVector,
    gains: &DVector,
    bias: &DVector,
) -> f64 {
    let gv = generator.csr().mul_vec(bias);
    let mut worst = 0.0f64;
    for i in 0..generator.n_states() {
        worst = worst.max((costs[i] - gains[i] + gv[i]).abs());
    }
    worst
}

/// Column of the bias unknown `v_j` in the dense evaluation system; the
/// pinned reference state has none.
fn bias_column(j: usize, reference_state: usize) -> Option<usize> {
    match j.cmp(&reference_state) {
        Ordering::Less => Some(1 + j),
        Ordering::Equal => None,
        Ordering::Greater => Some(j),
    }
}

/// Solves the unichain evaluation equations `c − g·1 + G v = 0`,
/// `v[reference_state] = 0` for `policy` by one LU of the dense system,
/// returning its gain and bias.
///
/// The gain column is filled with `−s` for `s =`
/// [`gain_scale`]`(max |G_ij|)`, so uniformly fast rates do not push it
/// under LU's relative pivot threshold. `O(n³)`; the workspace's solvers
/// evaluate through [`evaluate_multichain`], and this is the independent
/// oracle it is tested against.
///
/// # Errors
///
/// Returns [`MdpError::InvalidPolicy`] / [`MdpError::InvalidParameter`] for
/// mismatched inputs and [`MdpError::NotUnichain`] if the equations are
/// singular (multichain policy).
pub fn evaluate(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
) -> Result<Evaluation, MdpError> {
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    if reference_state >= n {
        return Err(MdpError::InvalidParameter {
            reason: format!("reference state {reference_state} out of range for {n} states"),
        });
    }
    let generator = mdp.generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;

    // Unknowns: x = (g/s, v_j for j != reference). Equation for each state
    // i, with v_reference = 0:
    //   -s·(g/s) + Σ_j G_ij v_j = -c_i
    let mut a = DMatrix::zeros(n, n);
    let mut max_abs = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            if let Some(c) = bias_column(j, reference_state) {
                a[(i, c)] = generator.rate(i, j);
                max_abs = max_abs.max(a[(i, c)].abs());
            }
        }
    }
    let scale = gain_scale(max_abs);
    for i in 0..n {
        a[(i, 0)] = -scale;
    }
    let b = DVector::from_fn(n, |i| -costs[i]);
    let x = a
        .lu()
        .map_err(|e| match e {
            LinalgError::Singular { .. } => MdpError::NotUnichain { iteration: 0 },
            e => MdpError::Numerical(e),
        })?
        .solve(&b)
        .map_err(MdpError::Numerical)?;
    Ok(Evaluation {
        gain: scale * x[0],
        bias: DVector::from_fn(n, |j| bias_column(j, reference_state).map_or(0.0, |c| x[c])),
    })
}

/// Gains and bias of a possibly multichain policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MultichainEvaluation {
    gains: DVector,
    bias: DVector,
    /// The factors the gains and bias came from.
    factors: ChainFactors,
}

impl MultichainEvaluation {
    /// Per-state long-run average cost. Constant within each recurrent
    /// class; absorption-weighted for transient states.
    #[must_use]
    pub fn gains(&self) -> &DVector {
        &self.gains
    }

    /// Bias (relative value) vector, pinned to zero at the lowest-numbered
    /// state of each closed class.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }
}

/// Evaluates a policy without any unichain assumption: one
/// [`ChainFactors`] of the policy's sparse generator, solved for its cost
/// rates. Gains are per class on closed classes and absorption-weighted on
/// transient states; the bias is pinned to zero at the lowest-numbered
/// state of each closed class.
///
/// # Errors
///
/// Propagates policy validation failures and [`MdpError::Chain`] for a
/// singular block ([`dpm_ctmc::CtmcError::SingularBlock`] names which).
pub fn evaluate_multichain(mdp: &Ctmdp, policy: &Policy) -> Result<MultichainEvaluation, MdpError> {
    evaluate_chain(
        &mdp.sparse_generator_for(policy)?,
        &mdp.cost_rates_for(policy)?,
    )
}

/// [`evaluate_multichain`] on an assembled chain and cost vector.
fn evaluate_chain(
    generator: &SparseGenerator,
    costs: &DVector,
) -> Result<MultichainEvaluation, MdpError> {
    let factors = ChainFactors::new(generator)?;
    let (gains, bias) = factors.solve(costs)?;
    Ok(MultichainEvaluation {
        gains,
        bias,
        factors,
    })
}

/// Result of multichain policy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct MultichainSolution {
    policy: Policy,
    gains: DVector,
    bias: DVector,
    factors: ChainFactors,
    iterations: usize,
    eval_residual: f64,
    eval_secs: Vec<f64>,
    improvement_deltas: Vec<usize>,
}

impl MultichainSolution {
    /// The optimal stationary deterministic policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Per-state optimal gains.
    #[must_use]
    pub fn gains(&self) -> &DVector {
        &self.gains
    }

    /// Long-run average cost starting from `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn gain_from(&self, state: usize) -> f64 {
        self.gains[state]
    }

    /// Bias vector of the optimal policy.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }

    /// The optimal policy's chain, factored by the last evaluation round:
    /// further cost vectors over that chain cost only triangular solves
    /// ([`ChainFactors::gains_each`]), not another factorization.
    #[must_use]
    pub fn factors(&self) -> &ChainFactors {
        &self.factors
    }

    /// Improvement rounds performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `‖c − g + G v‖_∞` of the final policy's modified evaluation
    /// equations (per-state gains) — the convergence-quality certificate.
    #[must_use]
    pub fn eval_residual(&self) -> f64 {
        self.eval_residual
    }

    /// Wall-clock seconds of each policy-evaluation step, in round order.
    #[must_use]
    pub fn eval_timings(&self) -> &[f64] {
        &self.eval_secs
    }

    /// Number of states whose action changed in each improvement round
    /// (the final round is always 0).
    #[must_use]
    pub fn improvement_deltas(&self) -> &[usize] {
        &self.improvement_deltas
    }
}

/// One policy-improvement sweep of Howard's two-stage rule, the step of
/// [`policy_iteration_multichain`]: in each state, first reduce the gain
/// drift `Σ_j s_{i,j}^a g_j`; if no action reduces it by more than the
/// tolerance, reduce the bias test quantity `c_i^a + Σ_j s_{i,j}^a v_j`
/// among drift-neutral actions.
///
/// A challenger replaces the incumbent only if it wins by more than
/// `tolerance · (1 + ‖g‖∞)`, so a converged policy is a fixpoint. One
/// contiguous pass over `kernel`, `O(nnz)`.
///
/// # Panics
///
/// Panics if `policy`, `gains` or `bias` does not match `kernel`'s state
/// count; [`policy_iteration_multichain`] has validated all three.
#[must_use]
pub fn improve(
    kernel: &ActionCsr,
    policy: &Policy,
    gains: &DVector,
    bias: &DVector,
    tolerance: f64,
) -> Policy {
    let tol = tolerance * (1.0 + gains.norm_inf());
    let mut next = policy.clone();
    let mut drifts: Vec<f64> = Vec::new();
    for state in 0..kernel.n_states() {
        let current = policy.action(state);
        // Each action's drift is needed up to three times below; one
        // contiguous kernel pass computes them all.
        drifts.clear();
        drifts
            .extend((0..kernel.n_actions(state)).map(|action| kernel.drift(state, action, gains)));
        let current_drift = drifts[current];
        // Stage 1: gain improvement.
        let best_drift = drifts.iter().fold(current_drift, |best, &d| best.min(d));
        let mut best_action = current;
        if best_drift < current_drift - tol {
            // Among (near-)minimal-drift actions, take the best bias.
            let mut best_test = f64::INFINITY;
            for (action, &drift) in drifts.iter().enumerate() {
                if drift <= best_drift + tol {
                    let t = kernel.bias_test(state, action, bias);
                    if t < best_test {
                        best_test = t;
                        best_action = action;
                    }
                }
            }
        } else {
            // Stage 2: bias improvement among drift-neutral actions.
            let mut best_test = kernel.bias_test(state, current, bias);
            for (action, &drift) in drifts.iter().enumerate() {
                if action != current && drift <= current_drift + tol {
                    let t = kernel.bias_test(state, action, bias);
                    if t < best_test - tol {
                        best_test = t;
                        best_action = action;
                    }
                }
            }
        }
        if best_action != current {
            next = next.with_action(state, best_action);
        }
    }
    next
}

/// Policy iteration for average-cost CTMDPs, unichain or multichain:
/// evaluate the policy as [`evaluate_multichain`] does, improve it with
/// [`improve`], and stop at the first policy the sweep leaves unchanged.
/// Each round assembles its policy's chain once
/// ([`Ctmdp::sparse_generator_for`]); the last round's chain also gives
/// the residual.
///
/// Policies may split the chain into several recurrent classes (e.g.
/// power-managed systems where "stay asleep forever" is a legal command);
/// on a unichain process every [`MultichainSolution::gain_from`] is the
/// same optimal gain.
///
/// # Errors
///
/// Returns [`MdpError::InvalidPolicy`] for a mismatched start,
/// [`MdpError::NotConverged`] if the iteration cap is hit, and propagates
/// evaluation failures.
///
/// # Examples
///
/// ```
/// use dpm_mdp::{average, Ctmdp};
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// let mut b = Ctmdp::builder(2);
/// b.action(0, "stay-cheap", 1.0, &[(1, 1.0)])?;
/// b.action(1, "slow", 5.0, &[(0, 1.0)])?;
/// b.action(1, "fast", 9.0, &[(0, 10.0)])?;
/// let mdp = b.build()?;
/// let best = average::policy_iteration_multichain(
///     &mdp,
///     mdp.min_cost_policy(),
///     &average::Options::default(),
/// )?;
/// // Fast repair wins: less time spent in the expensive state.
/// assert_eq!(best.policy().action(1), 1);
/// # Ok(())
/// # }
/// ```
pub fn policy_iteration_multichain(
    mdp: &Ctmdp,
    initial: Policy,
    options: &Options,
) -> Result<MultichainSolution, MdpError> {
    mdp.check_policy(&initial)?;
    let n = mdp.n_states();
    let kernel = mdp.sparse_actions();
    let mut policy = initial;
    let mut eval_secs = Vec::new();
    let mut improvement_deltas = Vec::new();
    for iteration in 1..=options.max_iterations {
        // dpm-lint: allow(nondeterminism, reason = "eval_secs is a wall-clock diagnostic in the iteration stats, not part of the solved policy or values")
        let eval_start = std::time::Instant::now();
        let generator = mdp.sparse_generator_for(&policy)?;
        let costs = mdp.cost_rates_for(&policy)?;
        let eval = evaluate_chain(&generator, &costs)?;
        eval_secs.push(eval_start.elapsed().as_secs_f64());
        let next = improve(
            &kernel,
            &policy,
            &eval.gains,
            &eval.bias,
            options.improvement_tolerance,
        );
        let changed = (0..n)
            .filter(|&state| next.action(state) != policy.action(state))
            .count();
        improvement_deltas.push(changed);
        if changed == 0 {
            let eval_residual = evaluation_residual(&generator, &costs, &eval.gains, &eval.bias);
            return Ok(MultichainSolution {
                policy,
                gains: eval.gains,
                bias: eval.bias,
                factors: eval.factors,
                iterations: iteration,
                eval_residual,
                eval_secs,
                improvement_deltas,
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

    /// Two-state machine: in state 1 (broken) choose slow cheap repair or
    /// fast expensive repair.
    fn repair_mdp(fast_cost: f64) -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", fast_cost, &[(0, 10.0)]).unwrap();
        b.build().unwrap()
    }

    /// Policy iteration from the minimum-cost-rate policy.
    fn solve(mdp: &Ctmdp) -> MultichainSolution {
        policy_iteration_multichain(mdp, mdp.min_cost_policy(), &Options::default()).unwrap()
    }

    /// Birth–death service model with rates spanning six orders of
    /// magnitude — the stiff spectrum the SYS instant-rate surrogate
    /// produces.
    fn stiff_mdp() -> Ctmdp {
        let mut b = Ctmdp::builder(4);
        b.action(0, "arrive", 0.5, &[(1, 1e-3)]).unwrap();
        b.action(1, "serve", 2.0, &[(0, 1e3), (2, 1.0)]).unwrap();
        b.action(2, "serve", 4.0, &[(1, 1e3), (3, 1e-2)]).unwrap();
        b.action(3, "flush", 8.0, &[(0, 1e3)]).unwrap();
        b.build().unwrap()
    }

    /// `0 → 1 ↔ 2` under its only policy: state 0 is transient, and the
    /// recurrent pair averages cost rates 2 and 4 to gain 3.
    fn transient_mdp() -> Ctmdp {
        let mut b = Ctmdp::builder(3);
        b.action(0, "go", 100.0, &[(1, 1.0)]).unwrap();
        b.action(1, "swap", 2.0, &[(2, 1.0)]).unwrap();
        b.action(2, "swap", 4.0, &[(1, 1.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn evaluation_matches_stationary_average() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let eval = evaluate(&mdp, &policy, 0).unwrap();
            let direct = mdp.average_cost(&policy).unwrap();
            assert!(
                (eval.gain() - direct).abs() < 1e-10,
                "policy {policy}: {} vs {direct}",
                eval.gain()
            );
            assert_eq!(eval.bias()[0], 0.0);
        }
    }

    #[test]
    fn evaluation_satisfies_bellman_identity() {
        let mdp = repair_mdp(9.0);
        let policy = Policy::new(vec![0, 1]);
        let eval = evaluate(&mdp, &policy, 0).unwrap();
        // c - g + G v = 0 at every state.
        let g = mdp.generator_for(&policy).unwrap();
        let c = mdp.cost_rates_for(&policy).unwrap();
        let gv = g.matrix().mul_vec(eval.bias());
        for i in 0..2 {
            assert!((c[i] - eval.gain() + gv[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn policy_iteration_finds_brute_force_optimum() {
        for fast_cost in [2.0, 9.0, 30.0, 100.0] {
            let mdp = repair_mdp(fast_cost);
            let solution = solve(&mdp);
            let brute = mdp
                .enumerate_policies()
                .into_iter()
                .map(|p| mdp.average_cost(&p).unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(
                (solution.gain_from(0) - brute).abs() < 1e-9,
                "fast_cost {fast_cost}: PI {} vs brute {brute}",
                solution.gain_from(0)
            );
        }
    }

    #[test]
    fn expensive_fast_repair_is_rejected() {
        // At fast-cost 100 the fast action is never worth it.
        let mdp = repair_mdp(100.0);
        assert_eq!(solve(&mdp).policy().action(1), 0);
    }

    #[test]
    fn cheap_fast_repair_is_chosen() {
        let mdp = repair_mdp(6.0);
        assert_eq!(solve(&mdp).policy().action(1), 1);
    }

    #[test]
    fn reference_state_does_not_change_gain() {
        let mdp = repair_mdp(9.0);
        let policy = Policy::new(vec![0, 1]);
        let e0 = evaluate(&mdp, &policy, 0).unwrap();
        let e1 = evaluate(&mdp, &policy, 1).unwrap();
        assert!((e0.gain() - e1.gain()).abs() < 1e-12);
        // Biases differ by a constant shift.
        let shift = e0.bias()[1] - e1.bias()[1];
        assert!((e0.bias()[0] - (e1.bias()[0] + shift)).abs() < 1e-10);
    }

    #[test]
    fn iteration_count_is_reported() {
        let solution = solve(&repair_mdp(6.0));
        assert!(solution.iterations() >= 1);
        assert!(solution.iterations() <= 4);
    }

    #[test]
    fn convergence_telemetry_is_reported() {
        let solution = solve(&repair_mdp(6.0));
        // One evaluation timing and one improvement delta per iteration,
        // and the final improvement round changes nothing.
        assert_eq!(solution.eval_timings().len(), solution.iterations());
        assert_eq!(solution.improvement_deltas().len(), solution.iterations());
        assert_eq!(*solution.improvement_deltas().last().unwrap(), 0);
        assert!(solution.eval_timings().iter().all(|&t| t >= 0.0));
        // The converged policy satisfies the evaluation equations tightly.
        assert!(solution.eval_residual() < 1e-9);
    }

    #[test]
    fn multichain_convergence_telemetry_is_reported() {
        let mut b = Ctmdp::builder(3);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(0, "hop", 0.5, &[(1, 2.0)]).unwrap();
        b.action(1, "stay", 4.0, &[]).unwrap();
        b.action(1, "back", 2.0, &[(0, 1.0)]).unwrap();
        b.action(2, "stay", 0.1, &[]).unwrap();
        let mdp = b.build().unwrap();
        let sol =
            policy_iteration_multichain(&mdp, Policy::new(vec![0, 0, 0]), &Options::default())
                .unwrap();
        assert_eq!(sol.eval_timings().len(), sol.iterations());
        assert_eq!(sol.improvement_deltas().len(), sol.iterations());
        assert_eq!(*sol.improvement_deltas().last().unwrap(), 0);
        assert!(sol.eval_residual() < 1e-9);
    }

    #[test]
    fn three_state_ring_with_shortcuts() {
        // State 0 cheap, state 2 very expensive; action choice in state 1
        // routes either into 2 or back to 0.
        let mut b = Ctmdp::builder(3);
        b.action(0, "advance", 0.0, &[(1, 1.0)]).unwrap();
        b.action(1, "risky", 0.0, &[(2, 1.0)]).unwrap();
        b.action(1, "safe", 3.0, &[(0, 1.0)]).unwrap();
        b.action(2, "recover", 50.0, &[(0, 0.2)]).unwrap();
        let mdp = b.build().unwrap();
        let solution = solve(&mdp);
        // Expensive state must be avoided.
        assert_eq!(solution.policy().action(1), 1);
        // Brute force via gain/bias evaluation, which (unlike the stationary
        // solver) handles policies with transient states.
        let brute = mdp
            .enumerate_policies()
            .into_iter()
            .map(|p| evaluate(&mdp, &p, 0).unwrap().gain())
            .fold(f64::INFINITY, f64::min);
        assert!((solution.gain_from(0) - brute).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mdp = repair_mdp(9.0);
        assert!(matches!(
            evaluate(&mdp, &Policy::new(vec![0]), 0),
            Err(MdpError::InvalidPolicy { .. })
        ));
        assert!(matches!(
            evaluate(&mdp, &Policy::new(vec![0, 0]), 5),
            Err(MdpError::InvalidParameter { .. })
        ));
        assert!(matches!(
            evaluate_multichain(&mdp, &Policy::new(vec![0])),
            Err(MdpError::InvalidPolicy { .. })
        ));
        assert!(
            policy_iteration_multichain(&mdp, Policy::new(vec![9, 9]), &Options::default())
                .is_err()
        );
    }

    #[test]
    fn single_state_process() {
        let mut b = Ctmdp::builder(1);
        b.action(0, "idle", 2.5, &[]).unwrap();
        b.action(0, "other", 4.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        let solution = solve(&mdp);
        assert_eq!(solution.policy().action(0), 0);
        assert!((solution.gain_from(0) - 2.5).abs() < 1e-12);
        let dense = evaluate(&mdp, &Policy::new(vec![0]), 0).unwrap();
        assert!((dense.gain() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_generator_matches_dense_generator() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let dense = mdp.generator_for(&policy).unwrap();
            let sparse = mdp.sparse_generator_for(&policy).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    assert!((dense.rate(i, j) - sparse.rate(i, j)).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn chain_factors_match_dense_evaluation() {
        let repair = repair_mdp(9.0);
        let mut cases: Vec<(&Ctmdp, Policy, usize)> = repair
            .enumerate_policies()
            .into_iter()
            .map(|policy| (&repair, policy, 0))
            .collect();
        // A transient state: `ChainFactors` pins the bias at state 1, the
        // lowest-numbered state of the recurrent pair.
        let transient = transient_mdp();
        cases.push((&transient, Policy::new(vec![0, 0, 0]), 1));
        let stiff = stiff_mdp();
        cases.push((&stiff, Policy::new(vec![0, 0, 0, 0]), 0));
        for (mdp, policy, reference) in cases {
            let dense = evaluate(mdp, &policy, reference).unwrap();
            let factored = evaluate_multichain(mdp, &policy).unwrap();
            let scale = 1.0 + dense.gain().abs();
            for (i, gain) in factored.gains().iter().enumerate() {
                assert!(
                    (dense.gain() - gain).abs() < 1e-10 * scale,
                    "policy {policy}, state {i}: {} vs {gain}",
                    dense.gain()
                );
            }
            let diff = (dense.bias() - factored.bias()).norm_inf();
            assert!(
                diff < 1e-9 * (1.0 + dense.bias().norm_inf()),
                "policy {policy}: bias diff {diff}"
            );
            assert_eq!(factored.bias()[reference], 0.0);
        }
        let eval = evaluate(&transient, &Policy::new(vec![0, 0, 0]), 1).unwrap();
        assert!((eval.gain() - 3.0).abs() < 1e-12, "gain {}", eval.gain());
    }

    #[test]
    fn chain_factors_handle_stiff_rates_directly() {
        // A 1e6 rate spread would need ~1e6 uniformized sweeps but is a
        // plain direct solve.
        let mut b = Ctmdp::builder(3);
        b.action(0, "instant", 0.5, &[(1, 1e6)]).unwrap();
        b.action(1, "work", 2.0, &[(2, 1.0)]).unwrap();
        b.action(2, "rest", 1.0, &[(0, 0.5)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0, 0]);
        let dense = evaluate(&mdp, &policy, 0).unwrap();
        let factored = evaluate_multichain(&mdp, &policy).unwrap();
        assert!((dense.gain() - factored.gains()[0]).abs() < 1e-9 * (1.0 + dense.gain().abs()));
    }

    #[test]
    fn dense_evaluation_diagnoses_multichain_policies() {
        // Two absorbing states: genuinely multichain.
        let mut b = Ctmdp::builder(2);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(1, "stay", 2.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        assert!(matches!(
            evaluate(&mdp, &Policy::new(vec![0, 0]), 0),
            Err(MdpError::NotUnichain { .. })
        ));
    }

    #[test]
    fn chain_factors_evaluate_uniformly_fast_rates() {
        // Rates of 1e14 put LU's relative pivot threshold (1e-13·max|A|) at
        // 10; a unit gain column would fall under it and this healthy
        // 2-cycle would be rejected as a singular closed-class block.
        let mut b = Ctmdp::builder(2);
        b.action(0, "fast", 1.0, &[(1, 1e14)]).unwrap();
        b.action(1, "fast", 3.0, &[(0, 1e14)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0]);
        let gain = evaluate(&mdp, &policy, 0).unwrap().gain();
        assert!((gain - 2.0).abs() < 1e-12, "dense gain {gain}");
        let factored = evaluate_multichain(&mdp, &policy).unwrap();
        for (i, gain) in factored.gains().iter().enumerate() {
            assert!((gain - 2.0).abs() < 1e-12, "state {i}: gain {gain}");
        }
        // v_1 = (g − c_0) / 1e14.
        assert!((factored.bias()[1] - 1e-14).abs() < 1e-26);
        let solution = solve(&mdp);
        assert!((solution.gain_from(0) - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod multichain_tests {
    use super::*;

    /// MDP where "stay put" is legal everywhere, so policies can shatter
    /// the chain into several recurrent classes.
    fn shatterable() -> Ctmdp {
        let mut b = Ctmdp::builder(3);
        // State 0: cheap-ish, can stay (absorbing) or move on.
        b.action(0, "stay", 3.0, &[]).unwrap();
        b.action(0, "go", 3.0, &[(1, 1.0)]).unwrap();
        // State 1: expensive, can stay or move.
        b.action(1, "stay", 10.0, &[]).unwrap();
        b.action(1, "go", 10.0, &[(2, 1.0)]).unwrap();
        // State 2: cheapest.
        b.action(2, "stay", 1.0, &[]).unwrap();
        b.action(2, "back", 5.0, &[(0, 1.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn evaluate_multichain_handles_all_stay() {
        let mdp = shatterable();
        let policy = Policy::new(vec![0, 0, 0]);
        let eval = evaluate_multichain(&mdp, &policy).unwrap();
        assert_eq!(eval.gains().as_slice(), &[3.0, 10.0, 1.0]);
    }

    #[test]
    fn evaluate_multichain_matches_unichain_evaluation() {
        let mdp = shatterable();
        // go, go, stay: unichain (absorbs in state 2).
        let policy = Policy::new(vec![1, 1, 0]);
        let multi = evaluate_multichain(&mdp, &policy).unwrap();
        let uni = evaluate(&mdp, &policy, 2).unwrap();
        for i in 0..3 {
            assert!((multi.gains()[i] - uni.gain()).abs() < 1e-10);
        }
    }

    #[test]
    fn multichain_pi_routes_everything_to_the_cheap_state() {
        let mdp = shatterable();
        // Worst start: everything stays put.
        let sol =
            policy_iteration_multichain(&mdp, Policy::new(vec![0, 0, 0]), &Options::default())
                .unwrap();
        // Optimal: from 0 go to 1, from 1 go to 2, stay at 2 (gain 1
        // everywhere).
        for i in 0..3 {
            assert!(
                (sol.gain_from(i) - 1.0).abs() < 1e-9,
                "state {i}: {}",
                sol.gain_from(i)
            );
        }
        assert_eq!(sol.policy().actions(), &[1, 1, 0]);
        assert!(sol.iterations() >= 2);
    }

    #[test]
    fn multichain_pi_matches_brute_force_on_unichain_mdp() {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 9.0, &[(0, 10.0)]).unwrap();
        let mdp = b.build().unwrap();
        let multi = policy_iteration_multichain(&mdp, Policy::new(vec![0, 0]), &Options::default())
            .unwrap();
        let (brute_policy, brute) = mdp
            .enumerate_policies()
            .into_iter()
            .map(|p| {
                let cost = mdp.average_cost(&p).unwrap();
                (p, cost)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(multi.policy(), &brute_policy);
        for i in 0..2 {
            assert!((multi.gain_from(i) - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn multichain_pi_keeps_isolated_cheap_class() {
        // If staying where you are is cheapest, PI should not move.
        let mut b = Ctmdp::builder(2);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(0, "go", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "stay", 2.0, &[]).unwrap();
        b.action(1, "go", 2.0, &[(0, 1.0)]).unwrap();
        let mdp = b.build().unwrap();
        let sol = policy_iteration_multichain(&mdp, Policy::new(vec![0, 0]), &Options::default())
            .unwrap();
        // From state 0, staying (gain 1) is optimal; from state 1, moving
        // to 0 (gain 1) beats staying (gain 2).
        assert!((sol.gain_from(0) - 1.0).abs() < 1e-9);
        assert!((sol.gain_from(1) - 1.0).abs() < 1e-9);
        assert_eq!(sol.policy().action(0), 0);
        assert_eq!(sol.policy().action(1), 1);
    }
}
