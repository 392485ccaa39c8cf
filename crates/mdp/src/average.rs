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

use dpm_ctmc::stationary::{ChainFactors, Method, Precond, SolverConfig};
use dpm_linalg::krylov::{self, Ilu0, KrylovOptions};
use dpm_linalg::{CsrMatrix, DMatrix, DVector, Lu, SparseLu};

use crate::{ActionCsr, Ctmdp, MdpError, Policy};

/// Margin applied to the uniformization constant by the sparse iterative
/// evaluation backend.
const UNIFORMIZATION_MARGIN: f64 = 1.05;

/// Default absolute tolerance on the gain estimate for
/// [`EvalBackend::SparseIterative`].
pub const ITERATIVE_GAIN_TOLERANCE: f64 = 1e-9;

/// Default sweep budget for [`EvalBackend::SparseIterative`].
pub const ITERATIVE_MAX_SWEEPS: usize = 1_000_000;

/// Linear-solver backend used by the policy-evaluation step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EvalBackend {
    /// Dense LU solve of the `n`-unknown evaluation system. Exact to
    /// rounding, `O(n³)` per evaluation; the default.
    #[default]
    Dense,
    /// Relative value iteration on the uniformized chain over the policy's
    /// sparse generator. `O(nnz)` per sweep with no dense matrix ever
    /// assembled, but the sweep count grows with the chain's stiffness:
    /// the uniformization constant is set by the fastest rate, so the
    /// sweeps needed scale as `O(instant_rate / slowest_rate)` and the
    /// default instant-rate surrogate (`χ(s,s) = 10⁶`) needs far more
    /// than the [`ITERATIVE_MAX_SWEEPS`] budget. Re-pose the model with a
    /// gentler instant rate (e.g. `PmSystemBuilder::instant_rate(1e2)`,
    /// which converges comfortably on the paper's models up to Q = 50)
    /// before selecting this backend — or use [`EvalBackend::SparseDirect`],
    /// whose factorization cost is independent of the rate spread.
    SparseIterative,
    /// Sparse direct LU solve of the evaluation system over the policy's
    /// CSR generator, with the dense gain column ordered last so fill-in
    /// stays `O(nnz)`. Exact to rounding like [`EvalBackend::Dense`] but
    /// near-linear in the state count for generator-shaped sparsity, and —
    /// unlike [`EvalBackend::SparseIterative`] — indifferent to stiffness:
    /// instant-rate surrogates cost nothing extra, retiring that backend's
    /// re-posing caveat.
    SparseDirect,
    /// Dense LU with factorization reuse across policy-iteration rounds:
    /// the evaluation system's row `i` depends only on state `i`'s chosen
    /// action, so after an improvement step that changes `m` actions the
    /// cached factors are corrected with a Sherman–Morrison–Woodbury
    /// row-update solve (`O((m+1)·n²)`) instead of refactorized
    /// (`O(n³)`). Falls back to a full refactorization when more than
    /// `n/4` rows changed or an `O(nnz)` residual check rejects the
    /// updated solve. Outside policy iteration this behaves exactly like
    /// [`EvalBackend::Dense`].
    CachedLu,
    /// Graceful degradation: the dense LU solve runs first, and a numerical
    /// failure — a `Singular`-induced [`MdpError::NotUnichain`], any
    /// [`MdpError::Numerical`], or a non-finite gain/bias — triggers one
    /// retry with the sparse iterative backend. Costs nothing on healthy
    /// models (the dense path wins immediately) and keeps policy iteration
    /// alive on generators conditioned badly enough that LU's relative
    /// pivot threshold misfires (e.g. uniformly fast rates dwarfing the
    /// unit gain column).
    Resilient,
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
            EvalBackend::SparseIterative => "sparse-iterative",
            EvalBackend::SparseDirect => "sparse-direct",
            EvalBackend::CachedLu => "cached-lu",
            EvalBackend::Resilient => "resilient",
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
            "sparse-iterative" => Some(EvalBackend::SparseIterative),
            "sparse-direct" => Some(EvalBackend::SparseDirect),
            "cached-lu" => Some(EvalBackend::CachedLu),
            "resilient" => Some(EvalBackend::Resilient),
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
    /// State whose bias is pinned to zero.
    pub reference_state: usize,
    /// Linear-solver backend for the evaluation step.
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
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    if reference_state >= n {
        return Err(MdpError::InvalidParameter {
            reason: format!("reference state {reference_state} out of range for {n} states"),
        });
    }
    let generator = mdp.generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;

    // Unknowns: x = (g, v_j for j != reference). Equation for each state i:
    //   -g + Σ_j G_ij v_j = -c_i       (with v_reference = 0)
    let col_of = |j: usize| -> Option<usize> {
        use std::cmp::Ordering;
        match j.cmp(&reference_state) {
            Ordering::Less => Some(1 + j),
            Ordering::Equal => None,
            Ordering::Greater => Some(j),
        }
    };
    let mut a = DMatrix::zeros(n, n);
    let mut b = DVector::zeros(n);
    for i in 0..n {
        a[(i, 0)] = -1.0;
        for j in 0..n {
            if let Some(c) = col_of(j) {
                a[(i, c)] = generator.rate(i, j);
            }
        }
        b[i] = -costs[i];
    }
    let solution = match a.lu() {
        Ok(lu) => lu.solve(&b).map_err(MdpError::Numerical)?,
        Err(dpm_linalg::LinalgError::Singular { .. }) => {
            return Err(MdpError::NotUnichain { iteration: 0 });
        }
        Err(e) => return Err(MdpError::Numerical(e)),
    };
    let gain = solution[0];
    let bias = DVector::from_fn(n, |j| match col_of(j) {
        Some(c) => solution[c],
        None => 0.0,
    });
    Ok(Evaluation { gain, bias })
}

/// Solves the evaluation equations iteratively over the policy's sparse
/// generator — relative value iteration `h ← c/Λ + Ph − (c/Λ + Ph)[ref]·1`
/// on the uniformized chain `P = I + G/Λ`, computed matrix-free in
/// `O(nnz)` per sweep.
///
/// At convergence `Λ·(c/Λ + Ph − h)` is the constant gain vector `g·1` and
/// `h` is the bias with `h[ref] = 0`, matching [`evaluate`] to the
/// tolerance. See [`EvalBackend::SparseIterative`] for when this pays off
/// and the stiffness caveat.
///
/// # Errors
///
/// As [`evaluate`], except a multichain policy surfaces as
/// [`MdpError::NotConverged`] (its per-class gains never equalize) rather
/// than [`MdpError::NotUnichain`].
pub fn evaluate_iterative(
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
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;
    let lambda = UNIFORMIZATION_MARGIN * generator.max_exit_rate();
    if lambda <= 0.0 {
        // No transitions anywhere: unichain only in the single-state case.
        if n == 1 {
            return Ok(Evaluation {
                gain: costs[0],
                bias: DVector::zeros(1),
            });
        }
        return Err(MdpError::NotUnichain { iteration: 0 });
    }
    let mut scaled_costs = costs;
    scaled_costs.scale_mut(1.0 / lambda);

    let mut h = DVector::zeros(n);
    for _ in 0..ITERATIVE_MAX_SWEEPS {
        // w = c/Λ + P h = c/Λ + h + (G h)/Λ.
        let mut w = generator.csr().mul_vec(&h);
        w.scale_mut(1.0 / lambda);
        w.axpy(1.0, &h);
        w.axpy(1.0, &scaled_costs);

        let mut min_delta = f64::INFINITY;
        let mut max_delta = f64::NEG_INFINITY;
        for i in 0..n {
            let delta = w[i] - h[i];
            min_delta = min_delta.min(delta);
            max_delta = max_delta.max(delta);
        }
        let gain = lambda * 0.5 * (max_delta + min_delta);
        let shift = w[reference_state];
        h = w.map(|x| x - shift);
        if lambda * (max_delta - min_delta) <= ITERATIVE_GAIN_TOLERANCE {
            return Ok(Evaluation { gain, bias: h });
        }
    }
    Err(MdpError::NotConverged {
        iterations: ITERATIVE_MAX_SWEEPS,
    })
}

/// Rejects evaluations contaminated by NaN/Inf — a solver that "succeeds"
/// with non-finite output must not leak into the improvement step.
fn require_finite(eval: Evaluation) -> Result<Evaluation, MdpError> {
    if eval.gain.is_finite() && eval.bias.iter().all(f64::is_finite) {
        Ok(eval)
    } else {
        Err(MdpError::Numerical(dpm_linalg::LinalgError::InvalidInput {
            reason: "policy evaluation produced non-finite gain or bias".to_owned(),
        }))
    }
}

/// Policy evaluation with graceful degradation ([`EvalBackend::Resilient`]).
///
/// The dense solve runs first; on a numerical failure (including non-finite
/// output) the evaluation is retried with [`evaluate_iterative`]. Validation
/// errors ([`MdpError::InvalidPolicy`], [`MdpError::InvalidParameter`])
/// propagate untouched — retrying cannot fix a malformed input.
///
/// # Errors
///
/// If both backends fail, the dense error is returned: it names the root
/// cause (e.g. a singular evaluation system), of which the iterative
/// failure is usually a downstream symptom.
pub fn evaluate_resilient(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
) -> Result<Evaluation, MdpError> {
    match evaluate(mdp, policy, reference_state).and_then(require_finite) {
        Ok(eval) => Ok(eval),
        Err(e @ (MdpError::InvalidPolicy { .. } | MdpError::InvalidParameter { .. })) => Err(e),
        Err(dense_error) => evaluate_iterative(mdp, policy, reference_state)
            .and_then(require_finite)
            .map_err(|_| dense_error),
    }
}

/// Solves the evaluation equations by sparse direct LU over the policy's
/// CSR generator ([`EvalBackend::SparseDirect`]).
///
/// Unknown ordering puts the bias components first and the gain *last*:
/// the gain column is the only dense column of the system, and eliminating
/// it last keeps the factorization's fill-in `O(nnz)`. Because the solve is
/// direct, stiff rate spectra (instant-event surrogate rates) cost nothing
/// beyond their entries — the caveat that forces
/// [`EvalBackend::SparseIterative`] onto re-posed models does not apply.
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
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    if reference_state >= n {
        return Err(MdpError::InvalidParameter {
            reason: format!("reference state {reference_state} out of range for {n} states"),
        });
    }
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;

    // Unknowns: x = (v_j for j != reference, then g). Equation for state i:
    //   Σ_j G_ij v_j − g = −c_i        (with v_reference = 0)
    let col_of = |j: usize| -> Option<usize> {
        use std::cmp::Ordering;
        match j.cmp(&reference_state) {
            Ordering::Less => Some(j),
            Ordering::Equal => None,
            Ordering::Greater => Some(j - 1),
        }
    };
    let mut triplets = Vec::with_capacity(generator.csr().nnz() + n);
    for (i, j, v) in generator.csr().iter() {
        if let Some(c) = col_of(j) {
            triplets.push((i, c, v));
        }
    }
    for i in 0..n {
        triplets.push((i, n - 1, -1.0));
    }
    let a = CsrMatrix::from_triplets(n, n, &triplets).map_err(MdpError::Numerical)?;
    let b = DVector::from_fn(n, |i| -costs[i]);
    let solution = match SparseLu::new(&a) {
        Ok(lu) => lu.solve(&b).map_err(MdpError::Numerical)?,
        Err(dpm_linalg::LinalgError::Singular { .. }) => {
            return Err(MdpError::NotUnichain { iteration: 0 });
        }
        Err(e) => return Err(MdpError::Numerical(e)),
    };
    let gain = solution[n - 1];
    let bias = DVector::from_fn(n, |j| match col_of(j) {
        Some(c) => solution[c],
        None => 0.0,
    });
    Ok(Evaluation { gain, bias })
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
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    if reference_state >= n {
        return Err(MdpError::InvalidParameter {
            reason: format!("reference state {reference_state} out of range for {n} states"),
        });
    }
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;

    // Same unknown ordering as the sparse direct backend: bias components
    // for j != reference first, the gain last (its dense column is the
    // system's only dense column).
    let col_of = |j: usize| -> Option<usize> {
        use std::cmp::Ordering;
        match j.cmp(&reference_state) {
            Ordering::Less => Some(j),
            Ordering::Equal => None,
            Ordering::Greater => Some(j - 1),
        }
    };
    let mut triplets = Vec::with_capacity(generator.csr().nnz() + n);
    for (i, j, v) in generator.csr().iter() {
        if let Some(c) = col_of(j) {
            triplets.push((i, c, v));
        }
    }
    for i in 0..n {
        triplets.push((i, n - 1, -1.0));
    }
    let a = CsrMatrix::from_triplets(n, n, &triplets).map_err(MdpError::Numerical)?;
    let b = DVector::from_fn(n, |i| -costs[i]);
    let options = KrylovOptions {
        tolerance: config.tolerance,
        max_iterations: config.max_iterations,
        restart: config.restart,
    };
    let precond = match config.precond {
        Precond::Ilu0 => match Ilu0::new(&a) {
            Ok(m) => Some(m),
            // Deterministic downgrade, mirroring the stationary solver.
            Err(dpm_linalg::LinalgError::Singular { .. }) => None,
            Err(e) => return Err(MdpError::Numerical(e)),
        },
        Precond::None => None,
    };
    let result = match method {
        Method::Gmres => krylov::gmres(&a, &b, precond.as_ref(), &options),
        _ => krylov::bicgstab(&a, &b, precond.as_ref(), &options),
    };
    let solution = match result {
        Ok(r) => r.solution,
        Err(dpm_linalg::LinalgError::NotConverged { iterations, .. }) => {
            return Err(MdpError::NotConverged { iterations });
        }
        Err(e) => return Err(MdpError::Numerical(e)),
    };
    let gain = solution[n - 1];
    let bias = DVector::from_fn(n, |j| match col_of(j) {
        Some(c) => solution[c],
        None => 0.0,
    });
    require_finite(Evaluation { gain, bias })
}

/// Dispatches the evaluation step according to `backend`.
fn evaluate_with(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
    backend: EvalBackend,
) -> Result<Evaluation, MdpError> {
    match backend {
        // A one-off evaluation has no factorization to reuse, so the cached
        // backend degenerates to the plain dense solve.
        EvalBackend::Dense | EvalBackend::CachedLu => evaluate(mdp, policy, reference_state),
        EvalBackend::SparseIterative => evaluate_iterative(mdp, policy, reference_state),
        EvalBackend::SparseDirect => evaluate_sparse_direct(mdp, policy, reference_state),
        EvalBackend::Resilient => evaluate_resilient(mdp, policy, reference_state),
        EvalBackend::SparseKrylov { method, config } => {
            evaluate_krylov(mdp, policy, reference_state, method, &config)
        }
    }
}

/// Cached dense factorization for [`EvalBackend::CachedLu`]: the LU factors
/// of the evaluation system assembled for `actions`, reusable while the
/// policy stays close to that base.
struct EvalCache {
    lu: Lu,
    /// Policy actions at factorization time, row by row.
    actions: Vec<usize>,
}

/// Maps evaluation-system singularities to the unichain diagnosis, like
/// [`evaluate`].
fn lu_or_not_unichain(a: DMatrix) -> Result<Lu, MdpError> {
    match a.lu() {
        Ok(lu) => Ok(lu),
        Err(dpm_linalg::LinalgError::Singular { .. }) => {
            Err(MdpError::NotUnichain { iteration: 0 })
        }
        Err(e) => Err(MdpError::Numerical(e)),
    }
}

/// Policy evaluation with dense-LU factorization reuse across rounds.
///
/// Assembles the full system and factorizes on the first call (or whenever
/// the policy drifted more than `n/4` rows from the cached base), and
/// otherwise corrects the cached solve with a Sherman–Morrison–Woodbury
/// row update covering exactly the states whose action differs from the
/// base policy. Every updated solve is certified against the evaluation
/// equations over the sparse generator; a residual above
/// `1e-8·(1 + |g| + ‖c‖_∞)` triggers a full refactorization, so results
/// stay within direct-solve accuracy unconditionally.
fn evaluate_cached(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
    cache: &mut Option<EvalCache>,
) -> Result<Evaluation, MdpError> {
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    if reference_state >= n {
        return Err(MdpError::InvalidParameter {
            reason: format!("reference state {reference_state} out of range for {n} states"),
        });
    }
    let col_of = |j: usize| -> Option<usize> {
        use std::cmp::Ordering;
        match j.cmp(&reference_state) {
            Ordering::Less => Some(1 + j),
            Ordering::Equal => None,
            Ordering::Greater => Some(j),
        }
    };
    let costs = mdp.cost_rates_for(policy)?;
    let b = DVector::from_fn(n, |i| -costs[i]);

    let refresh_limit = (n / 4).max(1);
    let changed: Vec<usize> = match cache {
        Some(c) => (0..n)
            .filter(|&i| c.actions[i] != policy.action(i))
            .collect(),
        None => (0..n).collect(),
    };

    if let Some(c) = cache.as_ref() {
        if changed.len() <= refresh_limit {
            // Δrow_i = row_i(new action) − row_i(base action); only the
            // generator entries differ (the gain column is constant).
            let updates: Vec<(usize, DVector)> = changed
                .iter()
                .map(|&i| {
                    let mut delta = DVector::zeros(n);
                    let new = &mdp.actions(i)[policy.action(i)];
                    let old = &mdp.actions(i)[c.actions[i]];
                    for &(to, rate) in new.rates() {
                        if let Some(col) = col_of(to) {
                            delta[col] += rate;
                        }
                    }
                    for &(to, rate) in old.rates() {
                        if let Some(col) = col_of(to) {
                            delta[col] -= rate;
                        }
                    }
                    if let Some(col) = col_of(i) {
                        delta[col] -= new.exit_rate() - old.exit_rate();
                    }
                    (i, delta)
                })
                .collect();
            if let Ok(solution) = c.lu.solve_updated(&updates, &b) {
                let gain = solution[0];
                let bias = DVector::from_fn(n, |j| match col_of(j) {
                    Some(col) => solution[col],
                    None => 0.0,
                });
                let eval = Evaluation { gain, bias };
                if let (true, Ok(residual)) = (
                    eval.gain.is_finite() && eval.bias.iter().all(f64::is_finite),
                    evaluation_residual(mdp, policy, |_| eval.gain, &eval.bias),
                ) {
                    let scale = 1.0 + eval.gain.abs() + costs.norm_inf();
                    if residual <= 1e-8 * scale {
                        return Ok(eval);
                    }
                }
            }
            // A failed or uncertified update falls through to refactorize.
        }
    }

    // Full assembly + factorization; re-seat the cache on the new base.
    let generator = mdp.generator_for(policy)?;
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, 0)] = -1.0;
        for j in 0..n {
            if let Some(c) = col_of(j) {
                a[(i, c)] = generator.rate(i, j);
            }
        }
    }
    let lu = lu_or_not_unichain(a)?;
    let solution = lu.solve(&b).map_err(MdpError::Numerical)?;
    *cache = Some(EvalCache {
        lu,
        actions: (0..n).map(|i| policy.action(i)).collect(),
    });
    let gain = solution[0];
    let bias = DVector::from_fn(n, |j| match col_of(j) {
        Some(c) => solution[c],
        None => 0.0,
    });
    Ok(Evaluation { gain, bias })
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
    let mut cache = None;
    let mut policy = initial;
    let mut eval_secs = Vec::new();
    let mut gain_history = Vec::new();
    let mut improvement_deltas = Vec::new();
    for iteration in 1..=options.max_iterations {
        // dpm-lint: allow(nondeterminism, reason = "eval_secs is a wall-clock diagnostic in the iteration stats, not part of the solved policy or values")
        let eval_start = std::time::Instant::now();
        let eval = match options.backend {
            EvalBackend::CachedLu => {
                evaluate_cached(mdp, &policy, options.reference_state, &mut cache)
            }
            backend => evaluate_with(mdp, &policy, options.reference_state, backend),
        }
        .map_err(|e| match e {
            MdpError::NotUnichain { .. } => MdpError::NotUnichain { iteration },
            other => other,
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
        assert!(evaluate(&mdp, &Policy::new(vec![0]), 0).is_err());
        assert!(evaluate(&mdp, &Policy::new(vec![0, 0]), 5).is_err());
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
    }
}

#[cfg(test)]
mod iterative_backend_tests {
    use super::*;

    fn repair_mdp(fast_cost: f64) -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", fast_cost, &[(0, 10.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn iterative_evaluation_matches_dense() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let dense = evaluate(&mdp, &policy, 0).unwrap();
            let sparse = evaluate_iterative(&mdp, &policy, 0).unwrap();
            assert!(
                (dense.gain() - sparse.gain()).abs() < 1e-7,
                "policy {policy}: {} vs {}",
                dense.gain(),
                sparse.gain()
            );
            let diff = (dense.bias() - sparse.bias()).norm_inf();
            assert!(diff < 1e-6, "policy {policy}: bias diff {diff}");
        }
    }

    #[test]
    fn iterative_evaluation_handles_transient_states() {
        // 0 -> 1 <-> 2 under the only policy; state 0 transient.
        let mut b = Ctmdp::builder(3);
        b.action(0, "go", 100.0, &[(1, 1.0)]).unwrap();
        b.action(1, "swap", 2.0, &[(2, 1.0)]).unwrap();
        b.action(2, "swap", 4.0, &[(1, 1.0)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0, 0]);
        let dense = evaluate(&mdp, &policy, 1).unwrap();
        let sparse = evaluate_iterative(&mdp, &policy, 1).unwrap();
        assert!((dense.gain() - sparse.gain()).abs() < 1e-7);
        assert!((sparse.gain() - 3.0).abs() < 1e-7);
    }

    #[test]
    fn policy_iteration_agrees_across_backends() {
        for fast_cost in [2.0, 9.0, 30.0, 100.0] {
            let mdp = repair_mdp(fast_cost);
            let dense = policy_iteration(&mdp, &Options::default()).unwrap();
            let sparse = policy_iteration(
                &mdp,
                &Options {
                    backend: EvalBackend::SparseIterative,
                    ..Options::default()
                },
            )
            .unwrap();
            assert_eq!(dense.policy(), sparse.policy(), "fast_cost {fast_cost}");
            assert!((dense.gain() - sparse.gain()).abs() < 1e-7);
        }
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
    fn single_state_iterative_evaluation() {
        let mut b = Ctmdp::builder(1);
        b.action(0, "idle", 2.5, &[]).unwrap();
        let mdp = b.build().unwrap();
        let eval = evaluate_iterative(&mdp, &Policy::new(vec![0]), 0).unwrap();
        assert!((eval.gain() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn default_backend_is_dense() {
        assert_eq!(EvalBackend::default(), EvalBackend::Dense);
        assert_eq!(Options::default().backend, EvalBackend::Dense);
    }
}

#[cfg(test)]
mod krylov_backend_tests {
    use super::*;

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
            EvalBackend::SparseIterative,
            EvalBackend::SparseDirect,
            EvalBackend::CachedLu,
            EvalBackend::Resilient,
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
}

#[cfg(test)]
mod resilient_backend_tests {
    use super::*;

    fn repair_mdp(fast_cost: f64) -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", fast_cost, &[(0, 10.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn resilient_matches_dense_on_healthy_models() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let dense = evaluate(&mdp, &policy, 0).unwrap();
            let resilient = evaluate_resilient(&mdp, &policy, 0).unwrap();
            assert_eq!(dense, resilient, "policy {policy}");
        }
    }

    #[test]
    fn resilient_survives_lu_pivot_misfire() {
        // Uniformly fast rates (1e14) push LU's relative pivot threshold
        // (1e-13 × max|A|) above the unit entries of the gain column, so the
        // dense backend misdiagnoses this healthy 2-cycle as multichain.
        // The uniformized chain, by contrast, is perfectly conditioned.
        let mut b = Ctmdp::builder(2);
        b.action(0, "fast", 1.0, &[(1, 1e14)]).unwrap();
        b.action(1, "fast", 3.0, &[(0, 1e14)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0]);
        assert!(matches!(
            evaluate(&mdp, &policy, 0),
            Err(MdpError::NotUnichain { .. })
        ));
        let eval = evaluate_resilient(&mdp, &policy, 0).unwrap();
        assert!((eval.gain() - 2.0).abs() < 1e-6, "gain {}", eval.gain());

        // End-to-end: policy iteration completes instead of aborting.
        let options = Options {
            backend: EvalBackend::Resilient,
            ..Options::default()
        };
        let solution = policy_iteration(&mdp, &options).unwrap();
        assert!((solution.gain() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn resilient_propagates_validation_errors() {
        let mdp = repair_mdp(9.0);
        assert!(matches!(
            evaluate_resilient(&mdp, &Policy::new(vec![0]), 0),
            Err(MdpError::InvalidPolicy { .. })
        ));
        assert!(matches!(
            evaluate_resilient(&mdp, &Policy::new(vec![0, 0]), 5),
            Err(MdpError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn resilient_reports_dense_error_when_both_backends_fail() {
        // Genuinely multichain: two absorbing states. Neither backend can
        // produce a unichain evaluation; the dense diagnosis wins.
        let mut b = Ctmdp::builder(2);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(1, "stay", 2.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        assert!(matches!(
            evaluate_resilient(&mdp, &Policy::new(vec![0, 0]), 0),
            Err(MdpError::NotUnichain { .. })
        ));
    }
}

#[cfg(test)]
mod kernel_and_reuse_tests {
    use super::*;

    fn repair_mdp(fast_cost: f64) -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", fast_cost, &[(0, 10.0)]).unwrap();
        b.build().unwrap()
    }

    /// A larger unichain CTMDP (ring with shortcuts) where every policy is
    /// irreducible, so the cached-LU path exercises many improvement rounds.
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
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let dense = evaluate(&mdp, &policy, 0).unwrap();
            let sparse = evaluate_sparse_direct(&mdp, &policy, 0).unwrap();
            assert!(
                (dense.gain() - sparse.gain()).abs() < 1e-10,
                "policy {policy}: {} vs {}",
                dense.gain(),
                sparse.gain()
            );
            let diff = (dense.bias() - sparse.bias()).norm_inf();
            assert!(diff < 1e-9, "policy {policy}: bias diff {diff}");
        }
    }

    #[test]
    fn sparse_direct_handles_stiff_rates_directly() {
        // A 1e6 rate spread needs ~1e6 iterative sweeps but is a plain
        // direct solve; this is the SparseIterative caveat being retired.
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
    fn sparse_direct_diagnoses_multichain_policies() {
        let mut b = Ctmdp::builder(2);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(1, "stay", 2.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        assert!(matches!(
            evaluate_sparse_direct(&mdp, &Policy::new(vec![0, 0]), 0),
            Err(MdpError::NotUnichain { .. })
        ));
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
    fn cached_lu_backend_matches_dense_end_to_end() {
        for mdp in [
            repair_mdp(2.0),
            repair_mdp(9.0),
            repair_mdp(100.0),
            ring(14),
        ] {
            let dense = policy_iteration(&mdp, &Options::default()).unwrap();
            let cached = policy_iteration(
                &mdp,
                &Options {
                    backend: EvalBackend::CachedLu,
                    ..Options::default()
                },
            )
            .unwrap();
            assert_eq!(dense.policy(), cached.policy());
            assert!(
                (dense.gain() - cached.gain()).abs() < 1e-10 * (1.0 + dense.gain().abs()),
                "{} vs {}",
                dense.gain(),
                cached.gain()
            );
            let diff = (dense.bias() - cached.bias()).norm_inf();
            assert!(diff < 1e-8, "bias diff {diff}");
        }
    }

    #[test]
    fn cached_lu_row_update_path_is_exercised() {
        // Start from "skip everywhere" so improvement rounds walk the
        // policy back state by state, reusing the cached factorization.
        let mdp = ring(16);
        let worst = Policy::uniform(mdp.n_states(), 1);
        let cached = policy_iteration_from(
            &mdp,
            worst.clone(),
            &Options {
                backend: EvalBackend::CachedLu,
                ..Options::default()
            },
        )
        .unwrap();
        let dense = policy_iteration_from(&mdp, worst, &Options::default()).unwrap();
        assert_eq!(dense.policy(), cached.policy());
        assert_eq!(dense.iterations(), cached.iterations());
        assert!(cached.eval_residual() < 1e-9);
    }

    #[test]
    fn cached_lu_standalone_evaluation_equals_dense() {
        let mdp = repair_mdp(9.0);
        let policy = Policy::new(vec![0, 1]);
        let via_backend = evaluate_with(&mdp, &policy, 0, EvalBackend::CachedLu).unwrap();
        let dense = evaluate(&mdp, &policy, 0).unwrap();
        assert_eq!(via_backend, dense);
    }

    #[test]
    fn cached_evaluation_survives_cache_reseeding() {
        let mdp = ring(10);
        let policies: Vec<Policy> = mdp.enumerate_policies().into_iter().take(6).collect();
        let mut cache = None;
        for policy in &policies {
            let cached = evaluate_cached(&mdp, policy, 0, &mut cache).unwrap();
            let dense = evaluate(&mdp, policy, 0).unwrap();
            assert!(
                (cached.gain() - dense.gain()).abs() < 1e-9 * (1.0 + dense.gain().abs()),
                "{} vs {}",
                cached.gain(),
                dense.gain()
            );
            assert!((cached.bias() - dense.bias()).norm_inf() < 1e-8);
        }
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
