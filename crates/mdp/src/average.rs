//! Howard-style policy iteration for the limiting average cost criterion.
//!
//! This is the "policy iteration algorithm" of the paper's Figure 3 (the
//! paper defers the details to Howard 1960 / Miller 1968). For a stationary
//! policy `δ` of a unichain CTMDP, the *gain* `g` (average cost per unit
//! time) and *bias* (relative value) vector `v` solve the evaluation
//! equations
//!
//! ```text
//! c^δ − g·1 + G^δ v = 0,    v[reference] = 0.
//! ```
//!
//! The improvement step then picks, in each state, the action minimizing
//! the *test quantity* `c_i^a + Σ_j s_{i,j}^a v_j`; iteration terminates at
//! a policy that is its own improvement, which is average-cost optimal over
//! all stationary policies (and by Theorem 2.3 of the paper over all
//! piecewise-stationary ones).

use std::cmp::Ordering;

use dpm_ctmc::stationary::{ChainFactors, Method, Precond, SolverConfig};
use dpm_linalg::krylov::{self, Ilu0, KrylovOptions};
use dpm_linalg::{CsrMatrix, DMatrix, DVector, LinalgError, SparseLu};

use crate::{ActionCsr, Ctmdp, MdpError, Policy};

/// Linear-solver backend used by the policy-evaluation step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EvalBackend {
    /// Dense LU solve of the `n`-unknown evaluation system. Exact to
    /// rounding, `O(n³)` per evaluation; the default and the reference the
    /// other backends are checked against.
    #[default]
    Dense,
    /// Sparse direct LU solve of the evaluation system over the policy's
    /// CSR generator, with the dense gain column ordered last so fill-in
    /// stays `O(nnz)`. Exact to rounding like [`EvalBackend::Dense`] but
    /// near-linear in the state count for generator-shaped sparsity, and
    /// indifferent to stiffness: instant-rate surrogates cost nothing
    /// extra.
    SparseDirect,
    /// Preconditioned Krylov solve of the same sparse evaluation system
    /// [`EvalBackend::SparseDirect`] assembles — `O(nnz)` per iteration
    /// with no factorization fill-in at all, the tier for 10⁴–10⁶-state
    /// processes where even the sparse direct factor grows too large.
    ///
    /// The variant carries the *same* options struct as
    /// [`dpm_ctmc::stationary::Solver`] ([`SolverConfig`]), so harness
    /// CLI flags (`--method`, `--tol`, `--precond`, `--restart`) map 1:1
    /// onto policy-evaluation configuration instead of per-backend ad-hoc
    /// constants. A multichain (singular) policy surfaces as
    /// [`MdpError::NotConverged`] rather than the direct backends'
    /// [`MdpError::NotUnichain`] — the iteration cannot distinguish the
    /// two.
    SparseKrylov {
        /// Krylov method: [`Method::BiCgStab`] or [`Method::Gmres`]; any
        /// other method is rejected as an invalid parameter.
        method: Method,
        /// Shared solver options (tolerance, iteration budget, GMRES
        /// restart length, preconditioner).
        config: SolverConfig,
    },
}

impl EvalBackend {
    /// Canonical lowercase name, stable for CLI flags and artifacts.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EvalBackend::Dense => "dense",
            EvalBackend::SparseDirect => "sparse-direct",
            EvalBackend::SparseKrylov { method, .. } => method.name(),
        }
    }

    /// Parses the canonical name (as produced by [`EvalBackend::name`]);
    /// Krylov methods get [`SolverConfig::default`], refined afterwards
    /// with [`EvalBackend::with_config`]. The 1:1 mapping for `--method`.
    #[must_use]
    pub fn parse(name: &str) -> Option<EvalBackend> {
        match name {
            "dense" => Some(EvalBackend::Dense),
            "sparse-direct" => Some(EvalBackend::SparseDirect),
            "bicgstab" | "gmres" => Some(EvalBackend::SparseKrylov {
                method: Method::parse(name)?,
                config: SolverConfig::default(),
            }),
            _ => None,
        }
    }

    /// Replaces the solver options on configurable backends (currently
    /// [`EvalBackend::SparseKrylov`]); a no-op on the others, so CLI code
    /// can apply flag-derived configuration unconditionally.
    #[must_use]
    pub fn with_config(self, config: SolverConfig) -> EvalBackend {
        match self {
            EvalBackend::SparseKrylov { method, .. } => {
                EvalBackend::SparseKrylov { method, config }
            }
            other => other,
        }
    }
}

/// Options for [`policy_iteration`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Hard cap on improvement rounds (each round solves one linear
    /// system). Policy iteration converges in finitely many steps, so this
    /// is a safety net only.
    pub max_iterations: usize,
    /// An action must beat the incumbent's test quantity by more than this
    /// to replace it — guards against cycling on ties.
    pub improvement_tolerance: f64,
    /// State whose bias is pinned to zero. Read only by
    /// [`policy_iteration`] and [`policy_iteration_from`];
    /// [`policy_iteration_multichain`] always pins the bias at each closed
    /// class's lowest-numbered state.
    pub reference_state: usize,
    /// Linear-solver backend for the evaluation step. Read only by
    /// [`policy_iteration`] and [`policy_iteration_from`];
    /// [`policy_iteration_multichain`] always evaluates through
    /// [`ChainFactors`].
    pub backend: EvalBackend,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_iterations: 1_000,
            improvement_tolerance: 1e-9,
            reference_state: 0,
            backend: EvalBackend::Dense,
        }
    }
}

/// Gain and bias of one policy.
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

/// The result of policy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    policy: Policy,
    gain: f64,
    bias: DVector,
    iterations: usize,
    eval_residual: f64,
    eval_secs: Vec<f64>,
    gain_history: Vec<f64>,
    improvement_deltas: Vec<usize>,
}

impl Solution {
    /// The optimal stationary deterministic policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Optimal average cost per unit time.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Bias vector of the optimal policy.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }

    /// Improvement rounds performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `‖c − g·1 + G v‖_∞` of the final policy's evaluation equations — an
    /// a-posteriori convergence-quality certificate, computed over the
    /// policy's sparse generator (`O(nnz)`).
    #[must_use]
    pub fn eval_residual(&self) -> f64 {
        self.eval_residual
    }

    /// Wall-clock seconds of each policy-evaluation step, in round order.
    /// Run-volatile: telemetry records these as timers, never as
    /// deterministic outputs.
    #[must_use]
    pub fn eval_timings(&self) -> &[f64] {
        &self.eval_secs
    }

    /// Gain of the policy evaluated at each round (ends at
    /// [`Solution::gain`]); successive differences are the improvement
    /// steps' cost reductions.
    #[must_use]
    pub fn gain_history(&self) -> &[f64] {
        &self.gain_history
    }

    /// Number of states whose action changed in each improvement round
    /// (the final round is always 0 — that is the convergence test).
    #[must_use]
    pub fn improvement_deltas(&self) -> &[usize] {
        &self.improvement_deltas
    }
}

/// `‖c − g + G v‖_∞` over the policy's sparse generator, with per-state
/// gains `g` (constant for unichain solutions).
fn evaluation_residual(
    mdp: &Ctmdp,
    policy: &Policy,
    gain_of: impl Fn(usize) -> f64,
    bias: &DVector,
) -> Result<f64, MdpError> {
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;
    let gv = generator.csr().mul_vec(bias);
    let mut worst = 0.0f64;
    for i in 0..mdp.n_states() {
        worst = worst.max((costs[i] - gain_of(i) + gv[i]).abs());
    }
    Ok(worst)
}

/// Validates `policy` and `reference_state` against `mdp`, returning the
/// state count.
fn check_inputs(mdp: &Ctmdp, policy: &Policy, reference_state: usize) -> Result<usize, MdpError> {
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    if reference_state >= n {
        return Err(MdpError::InvalidParameter {
            reason: format!("reference state {reference_state} out of range for {n} states"),
        });
    }
    Ok(n)
}

/// Column of the bias unknown `v_j` in an evaluation system whose bias
/// columns start at `first`; the pinned reference state has none.
fn bias_column(j: usize, reference_state: usize, first: usize) -> Option<usize> {
    match j.cmp(&reference_state) {
        Ordering::Less => Some(first + j),
        Ordering::Equal => None,
        Ordering::Greater => Some(first + j - 1),
    }
}

/// Largest power of two not above `max(1, max_abs)`, where `max_abs` is
/// the largest generator entry of an evaluation system: the magnitude of
/// its gain column.
///
/// A unit gain column beside uniformly fast rates (a 2-cycle at 1e14)
/// falls under LU's relative pivot threshold `1e-13·max|A|`, and a healthy
/// chain is misdiagnosed as multichain. Filling the column with `−s` keeps
/// it on the generator's scale, and the gain is `s` times its unknown.
/// Because `s` is a power of two the scaling is exact: every system the
/// unit column factored gives bit-identical gain and bias, and the pivot
/// threshold itself does not move (`s ≤ max(1, max|A|)`).
fn gain_scale(max_abs: f64) -> f64 {
    // Clearing a positive normal float's mantissa rounds it down to a
    // power of two.
    f64::from_bits(max_abs.max(1.0).to_bits() & !((1u64 << 52) - 1))
}

/// Reads gain and bias off a solved evaluation system whose bias columns
/// start at `first_bias` and whose gain unknown, scaled by `scale`, sits
/// in column `gain_column`.
fn unpack(
    solution: &DVector,
    reference_state: usize,
    first_bias: usize,
    gain_column: usize,
    scale: f64,
) -> Evaluation {
    let bias = DVector::from_fn(solution.len(), |j| {
        bias_column(j, reference_state, first_bias).map_or(0.0, |c| solution[c])
    });
    Evaluation {
        gain: scale * solution[gain_column],
        bias,
    }
}

/// Maps a singular evaluation system to the unichain diagnosis.
fn singular_is_multichain(e: LinalgError) -> MdpError {
    match e {
        LinalgError::Singular { .. } => MdpError::NotUnichain { iteration: 0 },
        e => MdpError::Numerical(e),
    }
}

/// Solves the evaluation equations for `policy`, returning its gain and
/// bias.
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
    let n = check_inputs(mdp, policy, reference_state)?;
    let generator = mdp.generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;

    // Unknowns: x = (g/s, v_j for j != reference). Equation for each state
    // i, with s = gain_scale(max |G_ij|) and v_reference = 0:
    //   -s·(g/s) + Σ_j G_ij v_j = -c_i
    let mut a = DMatrix::zeros(n, n);
    let mut max_abs = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            if let Some(c) = bias_column(j, reference_state, 1) {
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
    let solution = a
        .lu()
        .map_err(singular_is_multichain)?
        .solve(&b)
        .map_err(MdpError::Numerical)?;
    Ok(unpack(&solution, reference_state, 1, 0, scale))
}

/// Rejects evaluations contaminated by NaN/Inf — a solver that "succeeds"
/// with non-finite output must not leak into the improvement step.
fn require_finite(eval: Evaluation) -> Result<Evaluation, MdpError> {
    if eval.gain.is_finite() && eval.bias.iter().all(f64::is_finite) {
        Ok(eval)
    } else {
        Err(MdpError::Numerical(LinalgError::InvalidInput {
            reason: "policy evaluation produced non-finite gain or bias".to_owned(),
        }))
    }
}

/// The sparse evaluation system of one policy, shared by the sparse direct
/// and Krylov backends. Unknowns put the bias components for
/// `j != reference` first and the scaled gain *last*: the gain column is
/// the system's only dense column, and eliminating it last keeps the
/// direct factorization's fill-in `O(nnz)`.
struct SparseSystem {
    a: CsrMatrix,
    b: DVector,
    reference_state: usize,
    /// The gain is `scale` times the last unknown (see [`gain_scale`]).
    scale: f64,
}

impl SparseSystem {
    fn assemble(mdp: &Ctmdp, policy: &Policy, reference_state: usize) -> Result<Self, MdpError> {
        let n = check_inputs(mdp, policy, reference_state)?;
        let generator = mdp.sparse_generator_for(policy)?;
        let costs = mdp.cost_rates_for(policy)?;
        let mut triplets = Vec::with_capacity(generator.csr().nnz() + n);
        let mut max_abs = 0.0f64;
        for (i, j, v) in generator.csr().iter() {
            if let Some(c) = bias_column(j, reference_state, 0) {
                triplets.push((i, c, v));
                max_abs = max_abs.max(v.abs());
            }
        }
        let scale = gain_scale(max_abs);
        triplets.extend((0..n).map(|i| (i, n - 1, -scale)));
        Ok(SparseSystem {
            a: CsrMatrix::from_triplets(n, n, &triplets).map_err(MdpError::Numerical)?,
            b: DVector::from_fn(n, |i| -costs[i]),
            reference_state,
            scale,
        })
    }

    fn evaluation(&self, solution: &DVector) -> Evaluation {
        unpack(
            solution,
            self.reference_state,
            0,
            solution.len() - 1,
            self.scale,
        )
    }
}

/// Solves the evaluation equations by sparse direct LU over the policy's
/// CSR generator ([`EvalBackend::SparseDirect`]).
///
/// The gain is ordered last, so fill-in stays `O(nnz)`. Because the solve
/// is direct, stiff rate spectra (instant-event surrogate rates) cost
/// nothing beyond their entries.
///
/// # Errors
///
/// As [`evaluate`]: validation errors for mismatched inputs,
/// [`MdpError::NotUnichain`] if the system is singular (multichain policy).
pub fn evaluate_sparse_direct(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
) -> Result<Evaluation, MdpError> {
    let system = SparseSystem::assemble(mdp, policy, reference_state)?;
    let solution = SparseLu::new(&system.a)
        .map_err(singular_is_multichain)?
        .solve(&system.b)
        .map_err(MdpError::Numerical)?;
    Ok(system.evaluation(&solution))
}

/// Solves the evaluation equations with a preconditioned Krylov method
/// over the same sparse system [`evaluate_sparse_direct`] assembles
/// ([`EvalBackend::SparseKrylov`]).
///
/// `config` is the shared [`SolverConfig`] from the stationary solver, so
/// CLI-level tolerance / iteration-budget / restart / preconditioner flags
/// apply identically to both uses. A singular ILU(0) factorization
/// downgrades deterministically to the unpreconditioned iteration; a
/// non-convergent iteration surfaces as [`MdpError::NotConverged`] (a
/// multichain policy is indistinguishable from slow convergence here —
/// use a direct backend for the [`MdpError::NotUnichain`] diagnosis).
///
/// # Errors
///
/// Validation errors as [`evaluate`]; [`MdpError::InvalidParameter`] when
/// `method` is not [`Method::BiCgStab`] or [`Method::Gmres`];
/// [`MdpError::NotConverged`] when the iteration budget runs out.
pub fn evaluate_krylov(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
    method: Method,
    config: &SolverConfig,
) -> Result<Evaluation, MdpError> {
    if !method.is_krylov() {
        return Err(MdpError::InvalidParameter {
            reason: format!("evaluation backend requires a Krylov method, got {method:?}"),
        });
    }
    let system = SparseSystem::assemble(mdp, policy, reference_state)?;
    let options = KrylovOptions {
        tolerance: config.tolerance,
        max_iterations: config.max_iterations,
        restart: config.restart,
    };
    let precond = match config.precond {
        Precond::Ilu0 => match Ilu0::new(&system.a) {
            Ok(m) => Some(m),
            // Deterministic downgrade, mirroring the stationary solver.
            Err(LinalgError::Singular { .. }) => None,
            Err(e) => return Err(MdpError::Numerical(e)),
        },
        Precond::None => None,
    };
    let result = match method {
        Method::Gmres => krylov::gmres(&system.a, &system.b, precond.as_ref(), &options),
        _ => krylov::bicgstab(&system.a, &system.b, precond.as_ref(), &options),
    };
    let solution = match result {
        Ok(r) => r.solution,
        Err(LinalgError::NotConverged { iterations, .. }) => {
            return Err(MdpError::NotConverged { iterations });
        }
        Err(e) => return Err(MdpError::Numerical(e)),
    };
    require_finite(system.evaluation(&solution))
}

/// Dispatches the evaluation step according to `backend`.
fn evaluate_with(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
    backend: EvalBackend,
) -> Result<Evaluation, MdpError> {
    match backend {
        EvalBackend::Dense => evaluate(mdp, policy, reference_state),
        EvalBackend::SparseDirect => evaluate_sparse_direct(mdp, policy, reference_state),
        EvalBackend::SparseKrylov { method, config } => {
            evaluate_krylov(mdp, policy, reference_state, method, &config)
        }
    }
}

/// Test quantity `c_i^a + Σ_j s_{i,j}^a v_j` for action `a` in state `i`
/// given bias `v`.
fn test_quantity(mdp: &Ctmdp, state: usize, action: usize, bias: &DVector) -> f64 {
    let spec = &mdp.actions(state)[action];
    let mut q = spec.cost_rate();
    for &(to, rate) in spec.rates() {
        q += rate * (bias[to] - bias[state]);
    }
    q
}

/// One policy-improvement sweep by direct scan of the nested per-action
/// rate lists — the reference implementation the CSR kernel is checked
/// against. In every state the incumbent action wins unless a challenger
/// (scanned in action-index order) beats its test quantity by more than
/// `tolerance`.
///
/// # Panics
///
/// Panics if `policy` does not match `mdp` or `bias` is too short; callers
/// inside policy iteration have already validated both.
#[must_use]
pub fn improve_step(mdp: &Ctmdp, policy: &Policy, bias: &DVector, tolerance: f64) -> Policy {
    let mut next = policy.clone();
    for state in 0..mdp.n_states() {
        let incumbent = policy.action(state);
        let mut best_action = incumbent;
        let mut best_q = test_quantity(mdp, state, incumbent, bias);
        for action in 0..mdp.actions(state).len() {
            if action == incumbent {
                continue;
            }
            let q = test_quantity(mdp, state, action, bias);
            if q < best_q - tolerance {
                best_q = q;
                best_action = action;
            }
        }
        if best_action != incumbent {
            next = next.with_action(state, best_action);
        }
    }
    next
}

/// One policy-improvement sweep over a precomputed [`ActionCsr`] table —
/// `O(nnz)` contiguous traversal, bit-identical in argmax choice and
/// tie-breaking to [`improve_step`].
///
/// # Panics
///
/// As [`improve_step`], if the table/policy/bias dimensions disagree.
#[must_use]
pub fn improve_step_csr(
    kernel: &ActionCsr,
    policy: &Policy,
    bias: &DVector,
    tolerance: f64,
) -> Policy {
    let mut next = policy.clone();
    for state in 0..kernel.n_states() {
        let incumbent = policy.action(state);
        let mut best_action = incumbent;
        let mut best_q = kernel.test_quantity(state, incumbent, bias);
        for action in 0..kernel.n_actions(state) {
            if action == incumbent {
                continue;
            }
            let q = kernel.test_quantity(state, action, bias);
            if q < best_q - tolerance {
                best_q = q;
                best_action = action;
            }
        }
        if best_action != incumbent {
            next = next.with_action(state, best_action);
        }
    }
    next
}

/// Runs policy iteration to the average-cost optimal stationary policy.
///
/// The initial policy takes the minimum-cost-rate action in each state.
///
/// # Errors
///
/// Returns [`MdpError::NotUnichain`] if some intermediate policy induces a
/// multichain process (the power-management models in `dpm-core` preclude
/// this by construction), and [`MdpError::NotConverged`] if the iteration
/// cap is hit.
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
/// let best = average::policy_iteration(&mdp, &average::Options::default())?;
/// // Fast repair wins: less time spent in the expensive state.
/// assert_eq!(best.policy().action(1), 1);
/// # Ok(())
/// # }
/// ```
pub fn policy_iteration(mdp: &Ctmdp, options: &Options) -> Result<Solution, MdpError> {
    policy_iteration_from(mdp, mdp.min_cost_policy(), options)
}

/// Policy iteration from an explicit starting policy.
///
/// # Errors
///
/// As [`policy_iteration`], plus [`MdpError::InvalidPolicy`] for a
/// mismatched start.
pub fn policy_iteration_from(
    mdp: &Ctmdp,
    initial: Policy,
    options: &Options,
) -> Result<Solution, MdpError> {
    mdp.check_policy(&initial)?;
    let n = mdp.n_states();
    let kernel = mdp.sparse_actions();
    let mut policy = initial;
    let mut eval_secs = Vec::new();
    let mut gain_history = Vec::new();
    let mut improvement_deltas = Vec::new();
    for iteration in 1..=options.max_iterations {
        // dpm-lint: allow(nondeterminism, reason = "eval_secs is a wall-clock diagnostic in the iteration stats, not part of the solved policy or values")
        let eval_start = std::time::Instant::now();
        let eval =
            evaluate_with(mdp, &policy, options.reference_state, options.backend).map_err(|e| {
                match e {
                    MdpError::NotUnichain { .. } => MdpError::NotUnichain { iteration },
                    other => other,
                }
            })?;
        eval_secs.push(eval_start.elapsed().as_secs_f64());
        gain_history.push(eval.gain);
        // Improvement step over the contiguous per-action CSR rows.
        let next = improve_step_csr(&kernel, &policy, eval.bias(), options.improvement_tolerance);
        let changed = (0..n)
            .filter(|&state| next.action(state) != policy.action(state))
            .count();
        let improved = changed > 0;
        improvement_deltas.push(changed);
        if !improved {
            let eval_residual = evaluation_residual(mdp, &policy, |_| eval.gain, &eval.bias)?;
            return Ok(Solution {
                policy,
                gain: eval.gain,
                bias: eval.bias,
                iterations: iteration,
                eval_residual,
                eval_secs,
                gain_history,
                improvement_deltas,
            });
        }
        policy = next;
    }
    Err(MdpError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// Gains and bias of a possibly multichain policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MultichainEvaluation {
    gains: DVector,
    bias: DVector,
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
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;
    let (gains, bias) = ChainFactors::new(&generator)?.solve(&costs)?;
    Ok(MultichainEvaluation { gains, bias })
}

/// Result of multichain policy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct MultichainSolution {
    policy: Policy,
    gains: DVector,
    bias: DVector,
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

/// Policy iteration for general (multichain) average-cost CTMDPs: Howard's
/// two-stage improvement — first reduce the expected gain drift
/// `Σ_j s_{i,j}^a g_j`, then, among drift-minimal actions, reduce the bias
/// test quantity `c_i^a + Σ_j s_{i,j}^a v_j`.
///
/// Use this when policies may split the chain into several recurrent
/// classes (e.g. power-managed systems where "stay asleep forever" is a
/// legal command); for unichain processes [`policy_iteration`] is cheaper.
///
/// # Errors
///
/// Returns [`MdpError::NotConverged`] if the iteration cap is hit, and
/// propagates evaluation failures.
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
    let mut drifts: Vec<f64> = Vec::new();
    for iteration in 1..=options.max_iterations {
        // dpm-lint: allow(nondeterminism, reason = "eval_secs is a wall-clock diagnostic in the iteration stats, not part of the solved policy or values")
        let eval_start = std::time::Instant::now();
        let eval = evaluate_multichain(mdp, &policy)?;
        eval_secs.push(eval_start.elapsed().as_secs_f64());
        let gains = eval.gains();
        let bias = eval.bias();
        let scale = 1.0 + gains.norm_inf();
        let tol = options.improvement_tolerance * scale;

        let mut improved = false;
        let mut changed = 0usize;
        let mut next = policy.clone();
        for state in 0..n {
            let current = policy.action(state);
            let n_actions = kernel.n_actions(state);
            // Each action's drift is needed up to three times below; one
            // contiguous kernel pass computes them all.
            drifts.clear();
            drifts.extend((0..n_actions).map(|action| kernel.drift(state, action, gains)));
            let current_drift = drifts[current];
            // Stage 1: gain improvement.
            let mut best_drift = current_drift;
            for &drift in &drifts {
                best_drift = best_drift.min(drift);
            }
            if best_drift < current_drift - tol {
                // Among (near-)minimal-drift actions, take the best bias.
                let mut best_action = current;
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
                if best_action != current {
                    next = next.with_action(state, best_action);
                    improved = true;
                    changed += 1;
                }
                continue;
            }
            // Stage 2: bias improvement among drift-neutral actions.
            let current_test = kernel.bias_test(state, current, bias);
            let mut best_action = current;
            let mut best_test = current_test;
            for (action, &drift) in drifts.iter().enumerate() {
                if action == current {
                    continue;
                }
                if drift <= current_drift + tol {
                    let t = kernel.bias_test(state, action, bias);
                    if t < best_test - tol {
                        best_test = t;
                        best_action = action;
                    }
                }
            }
            if best_action != current {
                next = next.with_action(state, best_action);
                improved = true;
                changed += 1;
            }
        }
        improvement_deltas.push(changed);
        if !improved {
            let eval_residual = evaluation_residual(mdp, &policy, |i| eval.gains[i], &eval.bias)?;
            return Ok(MultichainSolution {
                policy,
                gains: eval.gains,
                bias: eval.bias,
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

    /// A larger unichain CTMDP (ring with shortcuts) where every policy is
    /// irreducible.
    fn ring(n: usize) -> Ctmdp {
        let mut b = Ctmdp::builder(n);
        for i in 0..n {
            let next = (i + 1) % n;
            let cost = 1.0 + (i as f64) * 0.37;
            b.action(i, "step", cost, &[(next, 1.0 + (i as f64) * 0.01)])
                .unwrap();
            let shortcut = (i + 2) % n;
            if shortcut != i && shortcut != next {
                b.action(i, "skip", cost * 1.5, &[(next, 0.3), (shortcut, 0.9)])
                    .unwrap();
            }
        }
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
            let solution = policy_iteration(&mdp, &Options::default()).unwrap();
            let brute = mdp
                .enumerate_policies()
                .into_iter()
                .map(|p| mdp.average_cost(&p).unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(
                (solution.gain() - brute).abs() < 1e-9,
                "fast_cost {fast_cost}: PI {} vs brute {brute}",
                solution.gain()
            );
        }
    }

    #[test]
    fn expensive_fast_repair_is_rejected() {
        // At fast-cost 100 the fast action is never worth it.
        let mdp = repair_mdp(100.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert_eq!(solution.policy().action(1), 0);
    }

    #[test]
    fn cheap_fast_repair_is_chosen() {
        let mdp = repair_mdp(6.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert_eq!(solution.policy().action(1), 1);
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
        let mdp = repair_mdp(6.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert!(solution.iterations() >= 1);
        assert!(solution.iterations() <= 4);
    }

    #[test]
    fn convergence_telemetry_is_reported() {
        let mdp = repair_mdp(6.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        // One evaluation timing and one improvement delta per iteration,
        // and the final improvement round changes nothing.
        assert_eq!(solution.eval_timings().len(), solution.iterations());
        assert_eq!(solution.improvement_deltas().len(), solution.iterations());
        assert_eq!(*solution.improvement_deltas().last().unwrap(), 0);
        assert!(solution.eval_timings().iter().all(|&t| t >= 0.0));
        // The converged policy satisfies the evaluation equations tightly.
        assert!(solution.eval_residual() < 1e-9);
        assert_eq!(solution.gain_history().len(), solution.iterations());
        assert!((solution.gain_history().last().unwrap() - solution.gain()).abs() < 1e-12);
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
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        // Expensive state must be avoided.
        assert_eq!(solution.policy().action(1), 1);
        // Brute force via gain/bias evaluation, which (unlike the stationary
        // solver) handles policies with transient states.
        let brute = mdp
            .enumerate_policies()
            .into_iter()
            .map(|p| evaluate(&mdp, &p, 0).unwrap().gain())
            .fold(f64::INFINITY, f64::min);
        assert!((solution.gain() - brute).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mdp = repair_mdp(9.0);
        for eval in [evaluate, evaluate_sparse_direct] {
            assert!(matches!(
                eval(&mdp, &Policy::new(vec![0]), 0),
                Err(MdpError::InvalidPolicy { .. })
            ));
            assert!(matches!(
                eval(&mdp, &Policy::new(vec![0, 0]), 5),
                Err(MdpError::InvalidParameter { .. })
            ));
        }
        assert!(policy_iteration_from(&mdp, Policy::new(vec![9, 9]), &Options::default()).is_err());
    }

    #[test]
    fn single_state_process() {
        let mut b = Ctmdp::builder(1);
        b.action(0, "idle", 2.5, &[]).unwrap();
        b.action(0, "other", 4.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert_eq!(solution.policy().action(0), 0);
        assert!((solution.gain() - 2.5).abs() < 1e-12);
        let sparse = evaluate_sparse_direct(&mdp, &Policy::new(vec![0]), 0).unwrap();
        assert!((sparse.gain() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn default_backend_is_dense() {
        assert_eq!(EvalBackend::default(), EvalBackend::Dense);
        assert_eq!(Options::default().backend, EvalBackend::Dense);
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
    fn krylov_evaluation_matches_dense() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let dense = evaluate(&mdp, &policy, 0).unwrap();
            for method in [Method::BiCgStab, Method::Gmres] {
                for precond in [Precond::Ilu0, Precond::None] {
                    let config = SolverConfig {
                        precond,
                        ..SolverConfig::default()
                    };
                    let krylov = evaluate_krylov(&mdp, &policy, 0, method, &config).unwrap();
                    assert!(
                        (dense.gain() - krylov.gain()).abs() < 1e-8,
                        "policy {policy} {method:?}/{precond:?}: {} vs {}",
                        dense.gain(),
                        krylov.gain()
                    );
                    let diff = (dense.bias() - krylov.bias()).norm_inf();
                    assert!(
                        diff < 1e-8,
                        "policy {policy} {method:?}/{precond:?}: {diff}"
                    );
                }
            }
        }
    }

    #[test]
    fn krylov_evaluation_handles_stiff_rates() {
        let mdp = stiff_mdp();
        let policy = Policy::new(vec![0, 0, 0, 0]);
        let dense = evaluate(&mdp, &policy, 0).unwrap();
        for method in [Method::BiCgStab, Method::Gmres] {
            let eval = evaluate_krylov(&mdp, &policy, 0, method, &SolverConfig::default()).unwrap();
            assert!(
                (dense.gain() - eval.gain()).abs() < 1e-8 * (1.0 + dense.gain().abs()),
                "{method:?}: {} vs {}",
                dense.gain(),
                eval.gain()
            );
        }
    }

    #[test]
    fn policy_iteration_agrees_with_krylov_backend() {
        for fast_cost in [2.0, 9.0, 30.0, 100.0] {
            let mdp = repair_mdp(fast_cost);
            let dense = policy_iteration(&mdp, &Options::default()).unwrap();
            for method in [Method::BiCgStab, Method::Gmres] {
                let krylov = policy_iteration(
                    &mdp,
                    &Options {
                        backend: EvalBackend::SparseKrylov {
                            method,
                            config: SolverConfig::default(),
                        },
                        ..Options::default()
                    },
                )
                .unwrap();
                assert_eq!(dense.policy(), krylov.policy(), "fast_cost {fast_cost}");
                assert!((dense.gain() - krylov.gain()).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn krylov_rejects_non_krylov_methods() {
        let mdp = repair_mdp(9.0);
        let policy = Policy::new(vec![0, 0]);
        for method in [Method::Lu, Method::Gth, Method::Power, Method::Iterative] {
            let err =
                evaluate_krylov(&mdp, &policy, 0, method, &SolverConfig::default()).unwrap_err();
            assert!(
                matches!(err, MdpError::InvalidParameter { .. }),
                "{method:?}: {err}"
            );
        }
    }

    #[test]
    fn backend_names_round_trip() {
        let backends = [
            EvalBackend::Dense,
            EvalBackend::SparseDirect,
            EvalBackend::SparseKrylov {
                method: Method::BiCgStab,
                config: SolverConfig::default(),
            },
            EvalBackend::SparseKrylov {
                method: Method::Gmres,
                config: SolverConfig::default(),
            },
        ];
        for backend in backends {
            let parsed = EvalBackend::parse(backend.name()).unwrap();
            assert_eq!(parsed, backend, "{}", backend.name());
        }
        assert!(EvalBackend::parse("cholesky").is_none());
    }

    #[test]
    fn with_config_rewrites_krylov_options_only() {
        let tight = SolverConfig {
            tolerance: 1e-6,
            max_iterations: 123,
            restart: 7,
            precond: Precond::None,
        };
        let krylov = EvalBackend::parse("gmres").unwrap().with_config(tight);
        match krylov {
            EvalBackend::SparseKrylov { method, config } => {
                assert_eq!(method, Method::Gmres);
                assert_eq!(config.max_iterations, 123);
                assert_eq!(config.restart, 7);
                assert_eq!(config.precond, Precond::None);
            }
            other => panic!("unexpected backend {other:?}"),
        }
        assert_eq!(
            EvalBackend::Dense.with_config(tight),
            EvalBackend::Dense,
            "with_config must be a no-op off the Krylov backend"
        );
    }

    #[test]
    fn csr_improvement_matches_reference_scan_exactly() {
        let mdp = ring(12);
        let kernel = mdp.sparse_actions();
        for policy in mdp.enumerate_policies().into_iter().take(32) {
            let eval = evaluate(&mdp, &policy, 0).unwrap();
            let tol = Options::default().improvement_tolerance;
            let dense = improve_step(&mdp, &policy, eval.bias(), tol);
            let csr = improve_step_csr(&kernel, &policy, eval.bias(), tol);
            assert_eq!(dense, csr, "policy {policy}");
        }
    }

    #[test]
    fn sparse_direct_matches_dense_evaluation() {
        let repair = repair_mdp(9.0);
        let mut cases: Vec<(&Ctmdp, Policy, usize)> = repair
            .enumerate_policies()
            .into_iter()
            .map(|policy| (&repair, policy, 0))
            .collect();
        // A transient state, with the bias pinned inside the recurrent pair.
        let transient = transient_mdp();
        cases.push((&transient, Policy::new(vec![0, 0, 0]), 1));
        for (mdp, policy, reference) in cases {
            let dense = evaluate(mdp, &policy, reference).unwrap();
            let sparse = evaluate_sparse_direct(mdp, &policy, reference).unwrap();
            assert!(
                (dense.gain() - sparse.gain()).abs() < 1e-10,
                "policy {policy}: {} vs {}",
                dense.gain(),
                sparse.gain()
            );
            let diff = (dense.bias() - sparse.bias()).norm_inf();
            assert!(diff < 1e-9, "policy {policy}: bias diff {diff}");
            assert_eq!(sparse.bias()[reference], 0.0);
        }
        let eval = evaluate(&transient, &Policy::new(vec![0, 0, 0]), 1).unwrap();
        assert!((eval.gain() - 3.0).abs() < 1e-12, "gain {}", eval.gain());
    }

    #[test]
    fn sparse_direct_handles_stiff_rates_directly() {
        // A 1e6 rate spread would need ~1e6 uniformized sweeps but is a
        // plain direct solve.
        let mut b = Ctmdp::builder(3);
        b.action(0, "instant", 0.5, &[(1, 1e6)]).unwrap();
        b.action(1, "work", 2.0, &[(2, 1.0)]).unwrap();
        b.action(2, "rest", 1.0, &[(0, 0.5)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0, 0]);
        let dense = evaluate(&mdp, &policy, 0).unwrap();
        let sparse = evaluate_sparse_direct(&mdp, &policy, 0).unwrap();
        assert!((dense.gain() - sparse.gain()).abs() < 1e-9 * (1.0 + dense.gain().abs()));
    }

    #[test]
    fn direct_backends_diagnose_multichain_policies() {
        // Two absorbing states: genuinely multichain.
        let mut b = Ctmdp::builder(2);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(1, "stay", 2.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        for eval in [evaluate, evaluate_sparse_direct] {
            assert!(matches!(
                eval(&mdp, &Policy::new(vec![0, 0]), 0),
                Err(MdpError::NotUnichain { .. })
            ));
        }
    }

    #[test]
    fn sparse_direct_backend_reaches_the_same_solution() {
        for fast_cost in [2.0, 9.0, 30.0, 100.0] {
            let mdp = repair_mdp(fast_cost);
            let dense = policy_iteration(&mdp, &Options::default()).unwrap();
            let sparse = policy_iteration(
                &mdp,
                &Options {
                    backend: EvalBackend::SparseDirect,
                    ..Options::default()
                },
            )
            .unwrap();
            assert_eq!(dense.policy(), sparse.policy(), "fast_cost {fast_cost}");
            assert!((dense.gain() - sparse.gain()).abs() < 1e-10);
        }
    }

    #[test]
    fn direct_backends_evaluate_uniformly_fast_rates() {
        // Rates of 1e14 put LU's relative pivot threshold (1e-13·max|A|) at
        // 10; a unit gain column would fall under it and this healthy
        // 2-cycle would be misdiagnosed as multichain.
        let mut b = Ctmdp::builder(2);
        b.action(0, "fast", 1.0, &[(1, 1e14)]).unwrap();
        b.action(1, "fast", 3.0, &[(0, 1e14)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0]);
        for eval in [evaluate, evaluate_sparse_direct] {
            let gain = eval(&mdp, &policy, 0).unwrap().gain();
            assert!((gain - 2.0).abs() < 1e-12, "gain {gain}");
        }
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert!((solution.gain() - 2.0).abs() < 1e-12);
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
    fn multichain_pi_agrees_with_unichain_pi_on_unichain_mdp() {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 9.0, &[(0, 10.0)]).unwrap();
        let mdp = b.build().unwrap();
        let uni = policy_iteration(&mdp, &Options::default()).unwrap();
        let multi = policy_iteration_multichain(&mdp, Policy::new(vec![0, 0]), &Options::default())
            .unwrap();
        assert_eq!(uni.policy(), multi.policy());
        assert!((multi.gain_from(0) - uni.gain()).abs() < 1e-9);
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
