//! Limiting (stationary) distributions of CTMCs.
//!
//! Theorem 2.1 of the paper: for an irreducible, positive-recurrent chain
//! the limiting distribution is the unique solution of `πG = 0`,
//! `Σ_j π_j = 1`. [`Solver::solve`] classifies its input once (one Tarjan
//! pass) and hands every backend an irreducible chain:
//!
//! * an irreducible chain is solved as given;
//! * a chain with one closed class and transient states still has a
//!   unique limiting distribution, supported on the class: only the class
//!   is solved, and `π` is exactly `0.0` on the transient states;
//! * with several closed classes the limit depends on the initial
//!   distribution, and the solve returns [`CtmcError::Reducible`]
//!   ([`ChainFactors`] handles that case per class).
//!
//! Three backends sit behind the [`Solver`] builder:
//!
//! * [`Method::Gth`] — Grassmann–Taksar–Heyman state reduction on the
//!   chain's off-diagonal rates in reverse Cuthill–McKee order, one
//!   subtraction-free kernel for dense and sparse input (and for
//!   [`Dtmc::stationary_gth`](crate::Dtmc::stationary_gth)); on banded
//!   chains such as SYS classes its cost is linear in the states; the
//!   default;
//! * [`Method::Iterative`] — Gauss–Seidel sweeps on the balance equations,
//!   `O(nnz)` per sweep, a path independent of elimination;
//! * [`Method::BiCgStab`] — ILU(0)-preconditioned BiCGSTAB with iterative
//!   refinement (`dpm_linalg::krylov`) on the normalization-row system,
//!   the `O(nnz)` path for chains whose elimination fill outgrows memory
//!   (Kronecker fleet chains).
//!
//! # The `Solver` builder
//!
//! Pick a [`Method`], adjust the tolerance and iteration budget,
//! optionally arm the escalation chain, and hand it a dense or sparse
//! generator through [`GeneratorRef`] (both convert with `From`):
//!
//! ```
//! use dpm_ctmc::{stationary::{Method, Solver}, Generator};
//!
//! # fn main() -> Result<(), dpm_ctmc::CtmcError> {
//! let g = Generator::builder(2).rate(0, 1, 1.0).rate(1, 0, 3.0).build()?;
//! for method in [Method::Gth, Method::Iterative, Method::BiCgStab] {
//!     let (pi, stats) = Solver::new(method).solve(&g)?;
//!     assert!((pi[0] - 0.75).abs() < 1e-8);
//!     assert_eq!(stats.method(), method);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! With [`Solver::with_default_fallback`] the solve escalates through
//! [`FALLBACK_CHAIN`] until a backend produces a distribution passing the
//! residual guard — a stalled Krylov solve degrades to GTH and then to
//! Gauss–Seidel automatically.

use dpm_linalg::krylov::{self, Ilu0, KrylovOptions, KrylovResult};
use dpm_linalg::{CsrMatrix, DVector, LinalgError, LinearOperator, Lu, Precondition};

use crate::graph::{self, Classes};
use crate::{CtmcError, Generator, SparseGenerator};

/// Default convergence tolerance: infinity norm of the per-sweep update
/// for [`Method::Iterative`], relative residual for [`Method::BiCgStab`].
pub const DEFAULT_TOLERANCE: f64 = 1e-12;

/// Default iteration budget (sweeps or Krylov matrix–vector products).
pub const DEFAULT_MAX_ITERATIONS: usize = 1_000_000;

/// Iterative-refinement correction solves after a converged Krylov
/// stationary solve (each one multiplies the forward-error reduction, and
/// one usually reaches the rounding floor).
const KRYLOV_REFINEMENT_STEPS: usize = 2;

/// Solver backend selector for [`Solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Grassmann–Taksar–Heyman state reduction on the off-diagonal rates,
    /// eliminating in reverse Cuthill–McKee order; dense and sparse input
    /// run the same kernel and give the same bits. Subtraction-free, the
    /// most robust choice on stiff chains. Cost follows the fill inside
    /// the RCM profile: `O(n·b²)` for bandwidth `b`, `O(n³)` on a dense
    /// chain. The default.
    #[default]
    Gth,
    /// Gauss–Seidel sweeps directly on the balance equations `πG = 0`,
    /// normalizing each sweep. `O(nnz)` per sweep and robust to stiffness
    /// (each state is relaxed against its own exit rate).
    Iterative,
    /// BiCGSTAB with ILU(0) preconditioning and iterative refinement on
    /// the normalization-row system. `O(nnz)` per iteration with short
    /// recurrences — the lowest-memory tier for very large sparse
    /// generators. A singular ILU(0) pivot downgrades the solve to
    /// unpreconditioned iteration.
    BiCgStab,
}

impl Method {
    /// Canonical lowercase name, stable for CLI flags and artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Method::Gth => "gth",
            Method::Iterative => "iterative",
            Method::BiCgStab => "bicgstab",
        }
    }
}

/// A dense or sparse generator, borrowed: the one input type of
/// [`Solver::solve`]. Both `&Generator` and `&SparseGenerator` convert
/// via `From`/`Into`, so call sites just pass references.
#[derive(Debug, Clone, Copy)]
pub enum GeneratorRef<'a> {
    /// A dense generator matrix.
    Dense(&'a Generator),
    /// A CSR-backed generator.
    Sparse(&'a SparseGenerator),
}

impl<'a> From<&'a Generator> for GeneratorRef<'a> {
    fn from(g: &'a Generator) -> GeneratorRef<'a> {
        GeneratorRef::Dense(g)
    }
}

impl<'a> From<&'a SparseGenerator> for GeneratorRef<'a> {
    fn from(g: &'a SparseGenerator) -> GeneratorRef<'a> {
        GeneratorRef::Sparse(g)
    }
}

impl GeneratorRef<'_> {
    fn n_states(self) -> usize {
        match self {
            GeneratorRef::Dense(g) => g.n_states(),
            GeneratorRef::Sparse(g) => g.n_states(),
        }
    }

    fn classes(self) -> Classes {
        match self {
            GeneratorRef::Dense(g) => graph::communicating_classes(g),
            GeneratorRef::Sparse(g) => graph::communicating_classes_sparse(g),
        }
    }

    fn max_exit_rate(self) -> f64 {
        match self {
            GeneratorRef::Dense(g) => g.max_exit_rate(),
            GeneratorRef::Sparse(g) => g.max_exit_rate(),
        }
    }

    fn residual(self, pi: &DVector) -> f64 {
        match self {
            GeneratorRef::Dense(g) => residual(g, pi),
            GeneratorRef::Sparse(g) => residual_sparse(g, pi),
        }
    }
}

/// Diagnostics of one stationary solve — the telemetry layer's view of
/// what the solver did, alongside the distribution itself.
///
/// [`Method::Gth`] reports zero sweeps; [`Method::Iterative`] its
/// Gauss–Seidel sweeps and [`Method::BiCgStab`] its matrix–vector
/// products. The residual `‖πG‖_∞` is always computed a posteriori on the
/// whole input generator, so it is an independent accuracy certificate
/// rather than the solver's own stopping estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    method: Method,
    sweeps: usize,
    residual: f64,
    escalation: Vec<(Method, String)>,
}

impl SolveStats {
    /// The backend that produced the distribution.
    #[must_use]
    pub fn method(&self) -> Method {
        self.method
    }

    /// Iteration sweeps performed: 0 for [`Method::Gth`], Gauss–Seidel
    /// sweeps for [`Method::Iterative`], matrix–vector products for
    /// [`Method::BiCgStab`].
    #[must_use]
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Final residual `‖πG‖_∞` of the returned distribution.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// The escalation path: backends tried and rejected (with the reason)
    /// before [`Self::method`] produced an acceptable distribution. Empty
    /// when fallback is off or the first backend succeeded.
    #[must_use]
    pub fn escalation(&self) -> &[(Method, String)] {
        &self.escalation
    }

    /// Whether the solve had to escalate past its first-choice backend.
    #[must_use]
    pub fn escalated(&self) -> bool {
        !self.escalation.is_empty()
    }
}

/// Ordered backend chain armed by [`Solver::with_default_fallback`], for
/// dense and sparse input alike. ILU(0)-preconditioned BiCGSTAB leads —
/// the `O(nnz)`-per-iteration tier that keeps memory flat on fleet chains
/// — then GTH, then Gauss–Seidel, which shares nothing with either.
pub const FALLBACK_CHAIN: [Method; 3] = [Method::BiCgStab, Method::Gth, Method::Iterative];

/// Relative slack of the a-posteriori residual guard applied by the
/// fallback chain: a candidate π is accepted only when
/// `‖πG‖∞ ≤ slack · max(1, max exit rate)`.
const FALLBACK_RESIDUAL_SLACK: f64 = 1e-8;

/// A configured stationary solve: method, tolerance, iteration budget,
/// optional escalation chain and irreducibility check, applied to dense or
/// sparse generators through one entry point.
///
/// # Examples
///
/// Krylov solve with fallback on a sparse generator:
///
/// ```
/// use dpm_ctmc::{stationary::{Method, Solver}, SparseGenerator};
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// let g = SparseGenerator::from_transitions(3, &[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 4.0)])?;
/// let (pi, stats) = Solver::new(Method::BiCgStab)
///     .tolerance(1e-12)
///     .with_default_fallback()
///     .solve(&g)?;
/// assert!((pi.sum() - 1.0).abs() < 1e-12);
/// assert!(!stats.escalated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    method: Method,
    tolerance: f64,
    max_iterations: usize,
    fallback: bool,
    check_irreducible: bool,
}

impl Solver {
    /// A solver using `method` with [`DEFAULT_TOLERANCE`],
    /// [`DEFAULT_MAX_ITERATIONS`], no fallback and no irreducibility
    /// check.
    #[must_use]
    pub fn new(method: Method) -> Solver {
        Solver {
            method,
            tolerance: DEFAULT_TOLERANCE,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            fallback: false,
            check_irreducible: false,
        }
    }

    /// Sets the convergence tolerance (see [`DEFAULT_TOLERANCE`]).
    #[must_use]
    pub fn tolerance(mut self, tolerance: f64) -> Solver {
        self.tolerance = tolerance;
        self
    }

    /// Sets the iteration budget.
    #[must_use]
    pub fn max_iters(mut self, max_iterations: usize) -> Solver {
        self.max_iterations = max_iterations;
        self
    }

    /// Arms escalation through [`FALLBACK_CHAIN`]. The builder's own
    /// method is tried first; chain members then follow in order
    /// (duplicates of the first method are skipped).
    #[must_use]
    pub fn with_default_fallback(mut self) -> Solver {
        self.fallback = true;
        self
    }

    /// Rejects every chain with more than one communicating class with
    /// [`CtmcError::Reducible`], instead of solving the closed class of a
    /// chain that has transient states.
    #[must_use]
    pub fn check_irreducible(mut self) -> Solver {
        self.check_irreducible = true;
        self
    }

    /// Solves `πG = 0`, `Σπ = 1` on a dense or sparse generator.
    ///
    /// A chain with transient states and one closed class is solved on
    /// that class, in the input's representation; `π` is exactly `0.0` on
    /// the transient states and the residual in the stats is taken on the
    /// whole generator. Without fallback, the configured method's result
    /// is returned as-is. With fallback, each backend's candidate must
    /// pass the validation guard — entries finite and nonnegative, mass 1,
    /// residual within the stiffness-scaled slack — or the next backend is
    /// tried.
    ///
    /// # Errors
    ///
    /// [`CtmcError::Reducible`] if the chain has more than one closed
    /// class (its limiting distribution is not unique), or more than one
    /// communicating class when [`Solver::check_irreducible`] is armed;
    /// [`CtmcError::InvalidParameter`] for a chain without states;
    /// otherwise the backend's failure (degenerate elimination,
    /// non-convergence), or [`CtmcError::FallbackExhausted`] when the
    /// armed chain runs out of backends.
    pub fn solve<'a>(
        &self,
        generator: impl Into<GeneratorRef<'a>>,
    ) -> Result<(DVector, SolveStats), CtmcError> {
        let generator = generator.into();
        let classes = generator.classes();
        if classes.is_empty() {
            return Err(CtmcError::InvalidParameter {
                reason: "cannot solve a chain with no states".to_owned(),
            });
        }
        if classes.len() == 1 {
            return self.solve_irreducible(generator);
        }
        let mut closed = classes.closed();
        let members = match (closed.next(), closed.next()) {
            (Some(members), None) if !self.check_irreducible => members,
            _ => {
                return Err(CtmcError::Reducible {
                    classes: classes.len(),
                })
            }
        };
        let (class_pi, mut stats) = match generator {
            GeneratorRef::Dense(g) => self.solve_irreducible((&g.closed_class(members)).into()),
            GeneratorRef::Sparse(g) => self.solve_irreducible((&g.closed_class(members)?).into()),
        }?;
        let mut pi = DVector::zeros(generator.n_states());
        for (&state, p) in members.iter().zip(class_pi.iter()) {
            pi[state] = p;
        }
        stats.residual = generator.residual(&pi);
        Ok((pi, stats))
    }

    /// [`Solver::solve`] on an irreducible chain.
    fn solve_irreducible(
        &self,
        generator: GeneratorRef<'_>,
    ) -> Result<(DVector, SolveStats), CtmcError> {
        let stats = |method, sweeps, residual, escalation| SolveStats {
            method,
            sweeps,
            residual,
            escalation,
        };
        if generator.n_states() == 1 {
            return Ok((
                DVector::constant(1, 1.0),
                stats(self.method, 0, 0.0, Vec::new()),
            ));
        }
        let attempt = |method| match generator {
            GeneratorRef::Dense(g) => self.attempt_dense(g, method),
            GeneratorRef::Sparse(g) => self.attempt_sparse(g, method),
        };
        if !self.fallback {
            let (pi, sweeps) = attempt(self.method)?;
            let residual = generator.residual(&pi);
            return Ok((pi, stats(self.method, sweeps, residual, Vec::new())));
        }
        let mut chain = vec![self.method];
        chain.extend(FALLBACK_CHAIN.into_iter().filter(|&m| m != self.method));
        let scale = generator.max_exit_rate();
        let mut escalation: Vec<(Method, String)> = Vec::new();
        for method in chain {
            match attempt(method) {
                Ok((pi, sweeps)) => {
                    let residual = generator.residual(&pi);
                    match distribution_flaw(&pi, residual, scale) {
                        None => return Ok((pi, stats(method, sweeps, residual, escalation))),
                        Some(flaw) => escalation.push((method, flaw)),
                    }
                }
                Err(err) => escalation.push((method, err.to_string())),
            }
        }
        Err(CtmcError::FallbackExhausted {
            attempts: escalation
                .into_iter()
                .map(|(m, e)| (format!("{m:?}"), e))
                .collect(),
        })
    }

    /// One backend attempt on an irreducible dense generator with at
    /// least two states, returning (π, sweeps).
    fn attempt_dense(
        &self,
        generator: &Generator,
        method: Method,
    ) -> Result<(DVector, usize), CtmcError> {
        match method {
            Method::Gth => Ok((gth(generator.n_states(), generator.transitions())?, 0)),
            Method::Iterative | Method::BiCgStab => {
                self.attempt_sparse(&SparseGenerator::from_generator(generator), method)
            }
        }
    }

    /// One backend attempt on an irreducible sparse generator with at
    /// least two states, returning (π, sweeps).
    fn attempt_sparse(
        &self,
        generator: &SparseGenerator,
        method: Method,
    ) -> Result<(DVector, usize), CtmcError> {
        match method {
            Method::Gth => Ok((gth(generator.n_states(), generator.transitions())?, 0)),
            Method::Iterative => {
                sparse_gauss_seidel(generator, self.tolerance, self.max_iterations)
            }
            Method::BiCgStab => sparse_bicgstab(generator, self.tolerance, self.max_iterations),
        }
    }
}

/// Why a candidate distribution is unacceptable, or `None` if it passes
/// every guard (finite, nonnegative, sums to 1, small scaled residual).
fn distribution_flaw(pi: &DVector, residual: f64, scale: f64) -> Option<String> {
    for (i, x) in pi.iter().enumerate() {
        if !x.is_finite() {
            return Some(format!("non-finite probability {x} at state {i}"));
        }
        if x < 0.0 {
            return Some(format!("negative probability {x} at state {i}"));
        }
    }
    let sum = pi.sum();
    if (sum - 1.0).abs() > 1e-8 {
        return Some(format!("probability mass {sum} != 1"));
    }
    let bound = FALLBACK_RESIDUAL_SLACK * scale.max(1.0);
    if residual.is_nan() || residual > bound {
        return Some(format!("residual {residual:e} exceeds bound {bound:e}"));
    }
    None
}

/// Back-substituted probabilities are rescaled once one exceeds this
/// bound, so a distribution spanning more than the `f64` range loses only
/// the entries below it (to 0), never overflows.
const GTH_RESCALE_BOUND: f64 = 1e200;

/// Grassmann–Taksar–Heyman state reduction: the one direct stationary
/// solve, behind [`Method::Gth`] on dense and sparse generators and behind
/// [`Dtmc::stationary_gth`](crate::Dtmc::stationary_gth).
///
/// `transitions` are the chain's off-diagonal `(from, to, rate)` entries
/// with `rate > 0`, each pair at most once. The chain must be irreducible
/// ([`Solver::solve`] reduces its input to the closed class first); the
/// diagonal is never read, so no uniformization is needed.
///
/// States are eliminated from the last position of their reverse
/// Cuthill–McKee order ([`graph::reverse_cuthill_mckee`]) to the first.
/// Eliminating `k` censors the chain on the states before it: the pivot
/// `s_k` is the sum of `k`'s rates to those states (a sum, never a
/// difference), and each remaining in-neighbour `i` gains
/// `q_ij += (q_ik / s_k) · q_kj`, dropping `j = i`. Rows are sorted
/// `(position, rate)` lists and the pivot row is scattered into a dense
/// scratch array, so a row that already holds every pivot column is
/// updated in one pass and only fill rebuilds a row. The cost follows the
/// fill inside the RCM profile: `O(n·b²)` on a band of width `b`, `O(n³)`
/// on a dense chain. The scaled `q_ik / s_k` stays in row `i` for the
/// back substitution `π_k = Σ_{i<k} π_i q_ik / s_k`, which starts from
/// `π = 1` at the first position and rescales past
/// [`GTH_RESCALE_BOUND`].
///
/// # Errors
///
/// [`CtmcError::Numerical`] when a pivot is not positive — a reducible
/// chain, or an irreducible one whose fill products underflow — or when
/// the distribution has no finite positive mass.
pub(crate) fn gth(
    n: usize,
    transitions: impl Iterator<Item = (usize, usize, f64)>,
) -> Result<DVector, CtmcError> {
    let transitions: Vec<(usize, usize, f64)> = transitions.collect();
    let order = graph::reverse_cuthill_mckee(n, transitions.iter().map(|&(i, j, _)| (i, j)));
    let mut position = vec![0usize; n];
    for (p, &state) in order.iter().enumerate() {
        position[state] = p;
    }
    // Off-diagonal rows and in-neighbour lists, both by position.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut in_neighbours: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, j, rate) in transitions {
        rows[position[i]].push((position[j], rate));
        in_neighbours[position[j]].push(position[i]);
    }
    for row in &mut rows {
        row.sort_unstable_by_key(|&(j, _)| j);
    }

    // The pivot row scattered densely: `pivot_rate[j]` holds `q_kj` while
    // `pivot_of[j] == k`.
    let mut pivot_rate = vec![0.0f64; n];
    let mut pivot_of = vec![0usize; n];
    let mut merged: Vec<(usize, f64)> = Vec::new();
    for k in (1..n).rev() {
        let pivot_row = std::mem::take(&mut rows[k]);
        let active = &pivot_row[..pivot_row.partition_point(|&(j, _)| j < k)];
        let s: f64 = active.iter().map(|&(_, q)| q).sum();
        if s <= 0.0 {
            return Err(CtmcError::Numerical(LinalgError::InvalidInput {
                reason: format!("GTH elimination degenerate at state {}", order[k]),
            }));
        }
        for &(j, q) in active {
            pivot_rate[j] = q;
            pivot_of[j] = k;
        }
        for i in std::mem::take(&mut in_neighbours[k]) {
            if i > k {
                continue;
            }
            let row = &mut rows[i];
            let at = row.partition_point(|&(j, _)| j < k);
            let factor = row[at].1 / s;
            row[at].1 = factor;
            // dpm-lint: allow(float_eq, reason = "exact structural-zero skip: an underflowed factor adds nothing")
            if factor == 0.0 {
                continue;
            }
            let mut hits = 0;
            for (j, q) in &mut row[..at] {
                if pivot_of[*j] == k {
                    *q += factor * pivot_rate[*j];
                    hits += 1;
                }
            }
            // Every pivot column but i itself must now be in row i.
            if hits + usize::from(pivot_of[i] == k) == active.len() {
                continue;
            }
            // Fill: rebuild the columns before k with the missing pivot
            // columns inserted in order.
            merged.clear();
            let mut entries = row[..at].iter().copied().peekable();
            for &(j, q) in active {
                while let Some(entry) = entries.next_if(|&(c, _)| c < j) {
                    merged.push(entry);
                }
                match entries.next_if(|&(c, _)| c == j) {
                    Some(entry) => merged.push(entry),
                    None if j != i => {
                        merged.push((j, factor * q));
                        in_neighbours[j].push(i);
                    }
                    None => {}
                }
            }
            merged.extend(entries);
            row.splice(..at, merged.drain(..));
        }
        rows[k] = pivot_row;
    }

    let mut pi = vec![0.0f64; n];
    if let Some(first) = pi.first_mut() {
        *first = 1.0;
    }
    for k in 0..n {
        if pi[k] > GTH_RESCALE_BOUND {
            let scale = 1.0 / pi[k];
            for x in &mut pi {
                *x *= scale;
            }
        }
        let p = pi[k];
        for &(j, factor) in &rows[k] {
            if j > k {
                pi[j] += p * factor;
            }
        }
    }
    let mut out = DVector::zeros(n);
    for (p, &state) in order.iter().enumerate() {
        out[state] = pi[p];
    }
    out.normalize_l1().map_err(CtmcError::Numerical)?;
    Ok(out)
}

/// Builds the normalization-row system for the Krylov solver:
/// `A x = e_{n-1}` with `A = D·Gᵀ` except that row `n−1` is the
/// all-ones normalization row, so the solution is `π` itself. `D`
/// equilibrates each balance row by its largest rate — row scaling leaves
/// the solution untouched but keeps the pivots comparable when rates span
/// many orders of magnitude (a single global scale cannot; stiff chains
/// would otherwise lose five-plus digits to the imbalance).
///
/// An alternative — eliminating the reference state and solving for
/// `π / π_{n-1}` — keeps the system free of the dense row, but its
/// solution spans as many orders of magnitude as `π_max / π_{n-1}`, which
/// for stiff chains overflows what `f64` residuals can resolve (the
/// Krylov methods then cannot converge). This formulation keeps
/// `‖x‖ ≤ 1` and `‖b‖ = 1` regardless of how lopsided `π` is, at the
/// cost of `n` extra non-zeros (no fill for ILU(0) or matrix–vector
/// products).
fn normalization_system(generator: &SparseGenerator) -> CsrMatrix {
    let n = generator.n_states();
    debug_assert!(n >= 2, "normalization system needs at least two states");
    let mut row_max = vec![0.0f64; n];
    for (_, j, v) in generator.csr().iter() {
        if j < n - 1 {
            row_max[j] = row_max[j].max(v.abs());
        }
    }
    let mut triplets = Vec::with_capacity(generator.nnz() + n);
    for (i, j, v) in generator.csr().iter() {
        if j == n - 1 {
            // Balance row n−1 of Gᵀ is replaced by the normalization row.
            continue;
        }
        let scale = if row_max[j] > 0.0 { row_max[j] } else { 1.0 };
        triplets.push((j, i, v / scale));
    }
    for c in 0..n {
        triplets.push((n - 1, c, 1.0));
    }
    // Construction cannot fail: indices are < n and rates are finite by
    // the generator's invariants.
    match CsrMatrix::from_triplets(n, n, &triplets) {
        Ok(a) => a,
        Err(_) => unreachable!("normalization-row triplets are in range and finite"), // dpm-lint: allow(no_panic, reason = "from_triplets only rejects out-of-range or non-finite entries, excluded by the generator invariants")
    }
}

/// Solves a normalization-row system `A x = e_{n−1}` — balance rows of
/// `Gᵀ`, each scaled by a positive factor, with the last row replaced by
/// the all-ones normalization row, so `x` is `π` itself — with the Krylov
/// `solve`, refines it and finishes it into a distribution. Returns the
/// distribution and the matrix–vector products spent.
///
/// The one Krylov driver of the workspace: the CSR tier
/// ([`Method::BiCgStab`]) and the matrix-free fleet solve
/// (`dpm_cluster::joint`) differ only in `A`, `a_norm` and `solve`.
///
/// Iterative refinement follows the first solve: the Krylov recursion
/// stops once its residual reaches `tol·‖b‖`, but the *forward* error is
/// κ(A) times that, which on stiff chains costs five-plus digits against
/// the backward-stable direct solves. At most two corrections against
/// the true residual close the gap to the κ(A)·ε floor those solves sit
/// at. The floor check `‖r‖ ≤ 4ε(‖b‖ + a_norm·‖x‖)` keeps a correction
/// solve from chasing a right-hand side that is already rounding noise
/// (its relative target would be unreachable). `a_norm` scales the reach
/// of rounding in `A·x`: `‖A‖∞` always bounds it, and a caller that knows
/// a sharper bound on `‖|A|·|x|‖ / ‖x‖` near the solution passes that
/// instead. The result is renormalized to absorb the residual, and
/// round-off negatives are clamped.
///
/// # Errors
///
/// [`CtmcError::Numerical`] when `A` has no rows, the first solve fails
/// or the solution is not a distribution. A failed correction solve
/// keeps the uncorrected solution, which already passed the solver's
/// convergence gate.
pub fn solve_normalized(
    a: &dyn LinearOperator,
    a_norm: f64,
    solve: impl Fn(&DVector) -> Result<KrylovResult, LinalgError>,
) -> Result<(DVector, usize), CtmcError> {
    let n = a.nrows();
    if n == 0 {
        return Err(CtmcError::Numerical(LinalgError::InvalidInput {
            reason: "normalization-row system has no rows".to_owned(),
        }));
    }
    let mut b = DVector::zeros(n);
    b[n - 1] = 1.0;
    let result = solve(&b).map_err(CtmcError::Numerical)?;
    let mut x = result.solution;
    let mut iterations = result.iterations;
    for _ in 0..KRYLOV_REFINEMENT_STEPS {
        let r = &b - &a.apply(&x);
        if r.norm() <= 4.0 * f64::EPSILON * (b.norm() + a_norm * x.norm()) {
            break;
        }
        match solve(&r) {
            Ok(correction) => {
                x.axpy(1.0, &correction.solution);
                iterations += correction.iterations;
            }
            Err(_) => break,
        }
    }
    let sum = x.sum();
    if !sum.is_finite() || sum <= 0.0 {
        return Err(CtmcError::Numerical(LinalgError::InvalidInput {
            reason: format!("stationary Krylov solve produced probability mass {sum}"),
        }));
    }
    x.scale_mut(1.0 / sum);
    Ok((sanitize(x)?, iterations))
}

/// ILU(0)-preconditioned BiCGSTAB on the normalization-row system.
fn sparse_bicgstab(
    generator: &SparseGenerator,
    tolerance: f64,
    max_iterations: usize,
) -> Result<(DVector, usize), CtmcError> {
    let a = normalization_system(generator);
    let options = KrylovOptions {
        tolerance,
        max_iterations,
    };
    let precond = match Ilu0::new(&a) {
        Ok(m) => Some(m),
        // Deterministic downgrade: a singular ILU pivot means the pattern
        // cannot support the factorization; iterate without it.
        Err(LinalgError::Singular { .. }) => None,
        Err(e) => return Err(CtmcError::Numerical(e)),
    };
    let m = precond.as_ref().map(|m| m as &dyn Precondition);
    solve_normalized(&a, a_norm_inf(&a), |rhs| {
        krylov::bicgstab(&a, rhs, m, &options)
    })
}

/// Maximum-absolute-row-sum norm of a CSR matrix.
fn a_norm_inf(a: &CsrMatrix) -> f64 {
    let mut norm = 0.0f64;
    for i in 0..a.nrows() {
        let row_sum: f64 = a.row(i).map(|(_, v)| v.abs()).sum();
        norm = norm.max(row_sum);
    }
    norm
}

/// Gauss–Seidel on the balance equations: sweep
/// `π_i ← (Σ_{j≠i} π_j G_{ji}) / exit_i` over the rows of `Gᵀ`,
/// renormalizing each sweep. Irreducibility keeps every exit rate
/// positive.
///
/// Unlike iterating the uniformized chain, the relaxation divides by each
/// state's own exit rate, so convergence does not degrade when rates span
/// many orders of magnitude (the instant-rate surrogate makes SYS
/// generators exactly that stiff).
fn sparse_gauss_seidel(
    generator: &SparseGenerator,
    tolerance: f64,
    max_iterations: usize,
) -> Result<(DVector, usize), CtmcError> {
    let n = generator.n_states();
    let transpose = generator.csr().transpose();
    let mut pi = DVector::constant(n, 1.0 / n as f64);
    let mut previous = pi.clone();
    for sweep in 1..=max_iterations {
        for i in 0..n {
            let mut inflow = 0.0;
            for (j, rate) in transpose.row(i) {
                if j != i {
                    inflow += rate * pi[j];
                }
            }
            pi[i] = inflow / generator.exit_rate(i);
        }
        let sum = pi.sum();
        if !(sum.is_finite() && sum > 0.0) {
            return Err(CtmcError::Numerical(
                dpm_linalg::LinalgError::InvalidInput {
                    reason: format!("Gauss–Seidel sweep produced probability mass {sum}"),
                },
            ));
        }
        pi.scale_mut(1.0 / sum);
        let update = (&pi - &previous).norm_inf();
        if update <= tolerance {
            return Ok((sanitize(pi)?, sweep));
        }
        previous = pi.clone();
    }
    Err(CtmcError::Numerical(
        dpm_linalg::LinalgError::NotConverged {
            iterations: max_iterations,
            residual: residual_sparse(generator, &pi),
        },
    ))
}

/// Residual `‖πG‖_∞` over the sparse representation.
///
/// # Panics
///
/// Panics if `pi.len() != generator.n_states()`.
#[must_use]
pub fn residual_sparse(generator: &SparseGenerator, pi: &DVector) -> f64 {
    generator.csr().vec_mul(pi).norm_inf()
}

/// Residual `‖πG‖_∞` of a candidate stationary vector — a cheap a-posteriori
/// accuracy check used by tests and benches.
///
/// # Panics
///
/// Panics if `pi.len() != generator.n_states()`.
#[must_use]
pub fn residual(generator: &Generator, pi: &DVector) -> f64 {
    generator.matrix().vec_mul(pi).norm_inf()
}

/// Expected long-run cost rate `π · c` for per-state cost rates `c`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[must_use]
pub fn long_run_average(pi: &DVector, cost_rates: &DVector) -> f64 {
    pi.dot(cost_rates)
}

/// Per-state long-run average cost (the *gain vector*) for an arbitrary —
/// possibly multichain — finite chain.
///
/// For a state in a closed (recurrent) communicating class the gain is the
/// class's stationary average of `costs`; for a transient state it is the
/// absorption-probability-weighted mixture of the reachable classes' gains,
/// obtained by solving `G_TT g_T = −G_TR g_R`. A thin wrapper over
/// [`ChainFactors`]: factor the chain once with [`ChainFactors::new`] and
/// call [`ChainFactors::gains_each`] when several cost vectors are needed.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidParameter`] on a length mismatch,
/// [`CtmcError::SingularBlock`] if the transient block is singular, and
/// propagates stationary-solver failures of closed classes whose block is
/// singular.
///
/// # Examples
///
/// ```
/// use dpm_ctmc::{stationary, Generator};
/// use dpm_linalg::DVector;
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// // State 0 splits between two absorbing states with different costs.
/// let g = Generator::builder(3)
///     .rate(0, 1, 1.0)
///     .rate(0, 2, 3.0)
///     .build()?;
/// let costs = DVector::from_vec(vec![0.0, 8.0, 4.0]);
/// let gains = stationary::gain_vector(&g, &costs)?;
/// // P(absorb in 1) = 1/4, P(absorb in 2) = 3/4.
/// assert!((gains[0] - (0.25 * 8.0 + 0.75 * 4.0)).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn gain_vector(generator: &Generator, costs: &DVector) -> Result<DVector, CtmcError> {
    ChainFactors::new(&SparseGenerator::from_generator(generator))?.gains(costs)
}

/// A block of a chain's gain/bias factorization ([`ChainFactors`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainBlock {
    /// The closed class whose lowest-numbered state is `first`.
    ClosedClass {
        /// The class's lowest-numbered state (the one whose bias is
        /// pinned to zero).
        first: usize,
    },
    /// The block of all transient states.
    Transient,
}

impl std::fmt::Display for ChainBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainBlock::ClosedClass { first } => write!(f, "closed-class block of state {first}"),
            ChainBlock::Transient => write!(f, "transient block"),
        }
    }
}

/// The gain/bias equations `c − g + G v = 0` of a possibly multichain
/// chain, factored once and solvable for any number of cost vectors.
///
/// Construction runs one Tarjan pass and factors one [`Lu`] per block
/// ([`Lu::from_rows`]), each block's rows taken straight from the
/// generator's CSR rows, so only stored entries and their fill are ever
/// held — no `k × k` array:
///
/// * each closed class `C` gets the combined system over the unknowns
///   `(v_j for j ∈ C \ {first}, g_C / s)`: the bias is pinned to zero at
///   the class's lowest-numbered state, and the dense gain column, filled
///   with `−s` for `s = gain_scale(max |G_ij|)`, comes last, so
///   elimination meets it after the sparse generator columns;
/// * the transient states `T` share one block `G_TT`, which yields the
///   absorption-weighted gains from `G_TT g_T = −G_TR g_R` and the bias
///   from `G_TT v_T = g_T − c_T − G_TR v_R`.
///
/// [`ChainFactors::gains`] and [`ChainFactors::solve`] then cost only
/// triangular solves per block, and [`ChainFactors::gains_each`] solves
/// several cost vectors in one pass over each block's factors. Policy
/// iteration keeps its last round's factors, so the metrics of an optimal
/// policy reuse them. If a closed class's block is numerically
/// singular, that class's gain comes from its stationary distribution,
/// solved through [`Solver::with_default_fallback`]; only a request for
/// that class's bias ([`ChainFactors::solve`]) fails.
///
/// # Examples
///
/// ```
/// use dpm_ctmc::{stationary::ChainFactors, SparseGenerator};
/// use dpm_linalg::DVector;
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// // 0 -> {1 <-> 2}: one closed class and one transient state.
/// let g = SparseGenerator::from_transitions(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 1, 3.0)])?;
/// let factors = ChainFactors::new(&g)?;
/// let (gains, bias) = factors.solve(&DVector::from_vec(vec![0.0, 4.0, 8.0]))?;
/// // π = (3/4, 1/4) on the class: gain 5 everywhere, bias 0 at state 1.
/// assert!((gains[0] - 5.0).abs() < 1e-12 && (gains[2] - 5.0).abs() < 1e-12);
/// assert_eq!(bias[1], 0.0);
/// // Other cost vectors reuse the same factors, several in one pass.
/// let [ones, power] = factors.gains_each([
///     &DVector::from_vec(vec![1.0, 1.0, 1.0]),
///     &DVector::from_vec(vec![9.0, 2.0, 6.0]),
/// ])?;
/// assert!((ones[0] - 1.0).abs() < 1e-12);
/// assert_eq!(power, factors.gains(&DVector::from_vec(vec![9.0, 2.0, 6.0]))?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChainFactors {
    n_states: usize,
    closed: Vec<ClosedClass>,
    transient: Option<TransientBlock>,
}

#[derive(Debug, Clone, PartialEq)]
struct ClosedClass {
    /// Members in ascending order; `members[0]` has its bias pinned.
    members: Vec<usize>,
    factor: ClassFactor,
}

#[derive(Debug, Clone, PartialEq)]
enum ClassFactor {
    /// LU of the combined block: bias of `members[1..]`, then the gain
    /// divided by `scale` (see [`gain_scale`]).
    Lu { lu: Lu, scale: f64 },
    /// The combined block was singular at `pivot`; the gain is `π · c`.
    Stationary {
        pi: DVector,
        stats: SolveStats,
        pivot: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct TransientBlock {
    /// Transient states in ascending order.
    states: Vec<usize>,
    lu: Lu,
    /// `(block row, recurrent state, rate)` of every rate leaving the
    /// block, in row-major order.
    exits: Vec<(usize, usize, f64)>,
}

impl ChainFactors {
    /// Decomposes `generator` into its closed classes and transient states
    /// and factors each block.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::SingularBlock`] if the transient block is
    /// singular, and propagates the stationary-solver failure of a closed
    /// class whose block is singular and whose fallback chain is exhausted.
    pub fn new(generator: &SparseGenerator) -> Result<ChainFactors, CtmcError> {
        let n = generator.n_states();
        let csr = generator.csr();
        let classes = graph::communicating_classes_sparse(generator);
        // `local[j]`: position of state `j` inside the block it belongs to.
        let mut local = vec![0usize; n];
        let mut recurrent = vec![false; n];
        let mut closed = Vec::new();
        for members in classes.closed() {
            let members = members.to_vec();
            for (l, &state) in members.iter().enumerate() {
                local[state] = l;
                recurrent[state] = true;
            }
            let k = members.len();
            // Closedness keeps every entry inside the class; the pinned
            // state's column drops out. Members ascend, so each row's
            // local columns do too, and the gain column comes last.
            let row = |i: usize| {
                csr.row(i)
                    .filter(|&(j, _)| local[j] > 0)
                    .map(|(j, rate)| (local[j] - 1, rate))
            };
            let max_abs = members
                .iter()
                .flat_map(|&i| row(i))
                .fold(0.0f64, |m, (_, rate)| m.max(rate.abs()));
            let scale = gain_scale(max_abs);
            let rows = members
                .iter()
                .map(|&i| row(i).chain(std::iter::once((k - 1, -scale))));
            let factor = match Lu::from_rows(k, rows) {
                Ok(lu) => ClassFactor::Lu { lu, scale },
                Err(LinalgError::Singular { pivot }) => {
                    let sub = generator.closed_class(&members)?;
                    // Closed classes inherit whatever conditioning the
                    // policy induced; escalate through the fallback chain
                    // rather than letting one class abort the gains.
                    let (pi, stats) = Solver::new(Method::Gth)
                        .with_default_fallback()
                        .solve(&sub)?;
                    ClassFactor::Stationary { pi, stats, pivot }
                }
                Err(e) => return Err(CtmcError::Numerical(e)),
            };
            closed.push(ClosedClass { members, factor });
        }

        let states: Vec<usize> = (0..n).filter(|&i| !recurrent[i]).collect();
        let transient = if states.is_empty() {
            None
        } else {
            for (l, &state) in states.iter().enumerate() {
                local[state] = l;
            }
            let t = states.len();
            let mut exits = Vec::new();
            for (row, &i) in states.iter().enumerate() {
                for (j, rate) in csr.row(i) {
                    if recurrent[j] {
                        exits.push((row, j, rate));
                    }
                }
            }
            let rows = states.iter().map(|&i| {
                csr.row(i)
                    .filter(|&(j, _)| !recurrent[j])
                    .map(|(j, rate)| (local[j], rate))
            });
            let lu = Lu::from_rows(t, rows).map_err(|e| match e {
                LinalgError::Singular { pivot } => CtmcError::SingularBlock {
                    block: ChainBlock::Transient,
                    states: t,
                    n_states: n,
                    pivot,
                },
                e => CtmcError::Numerical(e),
            })?;
            Some(TransientBlock { states, lu, exits })
        };
        Ok(ChainFactors {
            n_states: n,
            closed,
            transient,
        })
    }

    /// Stationary-solver statistics of every closed class whose combined
    /// block was singular and whose gain therefore came from `π`, in
    /// class order — empty when every block factored.
    pub fn class_fallbacks(&self) -> impl Iterator<Item = &SolveStats> {
        self.closed.iter().filter_map(|class| match &class.factor {
            ClassFactor::Stationary { stats, .. } => Some(stats),
            ClassFactor::Lu { .. } => None,
        })
    }

    /// Per-state gains of `costs`: the class average on closed classes,
    /// the absorption-weighted mixture on transient states. The one-vector
    /// case of [`ChainFactors::gains_each`].
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidParameter`] on a length mismatch.
    pub fn gains(&self, costs: &DVector) -> Result<DVector, CtmcError> {
        let [gains] = self.gains_each([costs])?;
        Ok(gains)
    }

    /// Per-state gains of each of `K` cost vectors in one pass: each
    /// block's triangular factors are read once and applied to all `K`
    /// right-hand sides ([`Lu::solve_each`]). Each result has the bits
    /// [`ChainFactors::gains`] gives its cost vector alone.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidParameter`] on a length mismatch.
    pub fn gains_each<const K: usize>(
        &self,
        costs: [&DVector; K],
    ) -> Result<[DVector; K], CtmcError> {
        self.solve_blocks(costs, false).map(|(gains, _)| gains)
    }

    /// Per-state gains and bias of `costs`; the bias is zero at the
    /// lowest-numbered state of each closed class.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidParameter`] on a length mismatch and
    /// [`CtmcError::SingularBlock`] if a closed class's block was singular
    /// (its gain is still available through [`ChainFactors::gains`]).
    pub fn solve(&self, costs: &DVector) -> Result<(DVector, DVector), CtmcError> {
        let ([gains], [bias]) = self.solve_blocks([costs], true)?;
        Ok((gains, bias))
    }

    /// Gains, and with `with_bias` the bias (zero otherwise), of each cost
    /// vector, block by block: closed classes first, then the transient
    /// block they feed.
    fn solve_blocks<const K: usize>(
        &self,
        costs: [&DVector; K],
        with_bias: bool,
    ) -> Result<([DVector; K], [DVector; K]), CtmcError> {
        let n = self.n_states;
        if let Some(bad) = costs.iter().find(|c| c.len() != n) {
            return Err(CtmcError::InvalidParameter {
                reason: format!("cost vector length {} != {n}", bad.len()),
            });
        }
        let mut gains: [DVector; K] = std::array::from_fn(|_| DVector::zeros(n));
        let mut bias: [DVector; K] = std::array::from_fn(|_| DVector::zeros(n));
        for class in &self.closed {
            let members = &class.members;
            let k = members.len();
            let gain: [f64; K] = match &class.factor {
                ClassFactor::Lu { lu, scale } => {
                    let rhs = costs.map(|c| DVector::from_fn(k, |l| -c[members[l]]));
                    let x = lu.solve_each(rhs.each_ref())?;
                    for (x, bias) in x.iter().zip(&mut bias) {
                        for (l, &state) in members.iter().enumerate().skip(1) {
                            bias[state] = x[l - 1];
                        }
                    }
                    x.map(|x| scale * x[k - 1])
                }
                ClassFactor::Stationary { pi, pivot, .. } => {
                    if with_bias {
                        return Err(CtmcError::SingularBlock {
                            block: ChainBlock::ClosedClass { first: members[0] },
                            states: k,
                            n_states: n,
                            pivot: *pivot,
                        });
                    }
                    costs.map(|c| {
                        members
                            .iter()
                            .enumerate()
                            .map(|(l, &state)| pi[l] * c[state])
                            .sum()
                    })
                }
            };
            for (gains, gain) in gains.iter_mut().zip(gain) {
                for &state in members {
                    gains[state] = gain;
                }
            }
        }
        if let Some(block) = &self.transient {
            let t = block.states.len();
            let rhs = gains
                .each_ref()
                .map(|g| block.minus_exits(DVector::zeros(t), g));
            let g_t = block.lu.solve_each(rhs.each_ref())?;
            for (gains, g_t) in gains.iter_mut().zip(&g_t) {
                for (row, &i) in block.states.iter().enumerate() {
                    gains[i] = g_t[row];
                }
            }
            if with_bias {
                let rhs: [DVector; K] = std::array::from_fn(|r| {
                    let gap = DVector::from_fn(t, |row| {
                        let i = block.states[row];
                        gains[r][i] - costs[r][i]
                    });
                    block.minus_exits(gap, &bias[r])
                });
                let v_t = block.lu.solve_each(rhs.each_ref())?;
                for (bias, v_t) in bias.iter_mut().zip(&v_t) {
                    for (row, &i) in block.states.iter().enumerate() {
                        bias[i] = v_t[row];
                    }
                }
            }
        }
        Ok((gains, bias))
    }
}

impl TransientBlock {
    /// `rhs − G_TR·values_R`: subtracts every rate leaving the block,
    /// weighted by the value of the recurrent state it enters.
    fn minus_exits(&self, mut rhs: DVector, values: &DVector) -> DVector {
        for &(row, j, rate) in &self.exits {
            rhs[row] -= rate * values[j];
        }
        rhs
    }
}

/// Largest power of two not above `max(1, max_abs)`, where `max_abs` is
/// the largest generator entry of an evaluation system: the magnitude of
/// its gain column.
///
/// A unit gain column beside uniformly fast rates (a 2-cycle at 1e14)
/// falls under LU's relative pivot threshold `1e-13·max|A|`, and a healthy
/// class is rejected as singular. Filling the column with `−s` keeps it on
/// the generator's scale, and the gain is `s` times its unknown. Because
/// `s` is a power of two the scaling is exact: every system the unit
/// column factored gives bit-identical gain and bias, and the pivot
/// threshold itself does not move (`s ≤ max(1, max|A|)`).
#[must_use]
pub fn gain_scale(max_abs: f64) -> f64 {
    // Clearing a positive normal float's mantissa rounds it down to a
    // power of two.
    f64::from_bits(max_abs.max(1.0).to_bits() & !((1u64 << 52) - 1))
}

fn sanitize(mut pi: DVector) -> Result<DVector, CtmcError> {
    // Clamp tiny negative round-off and renormalize.
    for x in pi.as_mut_slice() {
        if *x < 0.0 {
            if *x < -1e-8 {
                return Err(CtmcError::Numerical(
                    dpm_linalg::LinalgError::InvalidInput {
                        reason: format!("stationary solve produced negative probability {x}"),
                    },
                ));
            }
            *x = 0.0;
        }
    }
    pi.normalize_l1().map_err(CtmcError::Numerical)?;
    Ok(pi)
}

/// Builds the generator of an M/M/1/K queue — used by tests to compare the
/// numeric solvers against closed forms.
///
/// State `i` holds `i` customers; arrivals at rate `lambda` (blocked at
/// `K`), services at rate `mu`.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidParameter`] if `capacity == 0` or a rate is
/// not positive.
pub fn mm1k_generator(lambda: f64, mu: f64, capacity: usize) -> Result<Generator, CtmcError> {
    if capacity == 0 {
        return Err(CtmcError::InvalidParameter {
            reason: "queue capacity must be at least 1".to_owned(),
        });
    }
    if lambda <= 0.0 || mu <= 0.0 {
        return Err(CtmcError::InvalidParameter {
            reason: format!("rates must be positive, got lambda={lambda}, mu={mu}"),
        });
    }
    let mut b = Generator::builder(capacity + 1);
    for i in 0..capacity {
        b.add_rate(i, i + 1, lambda);
        b.add_rate(i + 1, i, mu);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::birth_death;

    const ALL_METHODS: [Method; 3] = [Method::Gth, Method::Iterative, Method::BiCgStab];

    fn three_state() -> Generator {
        Generator::builder(3)
            .rate(0, 1, 2.0)
            .rate(1, 2, 1.0)
            .rate(2, 0, 4.0)
            .rate(1, 0, 0.5)
            .build()
            .unwrap()
    }

    fn pi_of(method: Method, g: &Generator) -> DVector {
        Solver::new(method).solve(g).unwrap().0
    }

    #[test]
    fn gth_satisfies_balance() {
        let g = three_state();
        let pi = pi_of(Method::Gth, &g);
        assert!(residual(&g, &pi) < 1e-12);
        assert!((pi.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_mm1k_closed_form() {
        let lambda = 0.4;
        let mu = 1.0;
        let k = 6;
        let g = mm1k_generator(lambda, mu, k).unwrap();
        let pi = pi_of(Method::Gth, &g);
        let closed = birth_death::Mm1k::new(lambda, mu, k).unwrap();
        for i in 0..=k {
            assert!(
                (pi[i] - closed.probability(i)).abs() < 1e-12,
                "state {i}: {} vs {}",
                pi[i],
                closed.probability(i)
            );
        }
    }

    #[test]
    fn gth_is_stable_on_stiff_chain() {
        // Rates spanning 8 orders of magnitude.
        let g = Generator::builder(3)
            .rate(0, 1, 1e-4)
            .rate(1, 2, 1e4)
            .rate(2, 0, 1.0)
            .build()
            .unwrap();
        let pi = pi_of(Method::Gth, &g);
        assert!(residual(&g, &pi) < 1e-9);
    }

    #[test]
    fn checked_rejects_reducible() {
        let g = Generator::builder(3)
            .rate(0, 1, 1.0)
            .rate(1, 0, 1.0)
            .rate(1, 2, 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            Solver::new(Method::Gth).check_irreducible().solve(&g),
            Err(CtmcError::Reducible { classes: 2 })
        ));
    }

    #[test]
    fn checked_rejects_reducible_sparse() {
        let g =
            SparseGenerator::from_transitions(3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(matches!(
            Solver::new(Method::BiCgStab).check_irreducible().solve(&g),
            Err(CtmcError::Reducible { classes: 2 })
        ));
    }

    #[test]
    fn checked_accepts_irreducible() {
        let (pi, _) = Solver::new(Method::Gth)
            .check_irreducible()
            .solve(&three_state())
            .unwrap();
        assert!((pi.sum() - 1.0).abs() < 1e-12);
    }

    /// Unichain: `{0,1}` is transient, `{2,3}` the single closed class.
    fn sparse_reducible_unichain() -> SparseGenerator {
        SparseGenerator::from_transitions(
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 2, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn unichain_input_solves_only_the_closed_class() {
        let sparse = sparse_reducible_unichain();
        let dense = sparse.to_generator().unwrap();
        // Detailed balance on the class: `2 π₂ = π₃`.
        let reference = [0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0];
        for method in ALL_METHODS {
            for (pi, stats) in [
                Solver::new(method).solve(&sparse).unwrap(),
                Solver::new(method).solve(&dense).unwrap(),
            ] {
                assert_eq!(stats.method(), method);
                assert!(!stats.escalated());
                assert_eq!((pi[0], pi[1]), (0.0, 0.0), "{method:?}");
                for i in 2..4 {
                    assert!((pi[i] - reference[i]).abs() < 1e-12, "{method:?} {i}");
                }
                assert_eq!(stats.residual(), residual_sparse(&sparse, &pi));
            }
        }
    }

    #[test]
    fn absorbing_state_is_a_point_mass() {
        let g =
            SparseGenerator::from_transitions(3, &[(0, 1, 1.0), (0, 2, 2.0), (2, 1, 5.0)]).unwrap();
        for method in ALL_METHODS {
            let (pi, stats) = Solver::new(method).solve(&g).unwrap();
            assert_eq!(pi.as_slice(), &[0.0, 1.0, 0.0], "{method:?}");
            assert_eq!(stats.residual(), 0.0);
        }
    }

    #[test]
    fn several_closed_classes_are_reducible_on_every_path() {
        // Two closed classes, {0, 1} and {3}, fed by transient state 2.
        let sparse = SparseGenerator::from_transitions(
            4,
            &[(0, 1, 1.0), (1, 0, 2.0), (2, 0, 1.0), (2, 3, 1.0)],
        )
        .unwrap();
        let dense = sparse.to_generator().unwrap();
        for method in ALL_METHODS {
            for solver in [
                Solver::new(method),
                Solver::new(method).with_default_fallback(),
            ] {
                for result in [solver.solve(&sparse), solver.solve(&dense)] {
                    assert_eq!(result, Err(CtmcError::Reducible { classes: 3 }));
                }
            }
        }
    }

    #[test]
    fn long_run_average_weights_costs() {
        let pi = DVector::from_vec(vec![0.25, 0.75]);
        let c = DVector::from_vec(vec![40.0, 0.0]);
        assert_eq!(long_run_average(&pi, &c), 10.0);
    }

    #[test]
    fn mm1k_generator_validates() {
        assert!(mm1k_generator(0.0, 1.0, 3).is_err());
        assert!(mm1k_generator(1.0, 1.0, 0).is_err());
    }

    #[test]
    fn all_methods_agree_dense() {
        let g = three_state();
        let (reference, _) = Solver::new(Method::Gth).solve(&g).unwrap();
        for method in ALL_METHODS {
            let (pi, _) = Solver::new(method).solve(&g).unwrap();
            assert!(
                (&pi - &reference).norm_inf() < 1e-8,
                "{method:?} diverges from GTH"
            );
        }
    }

    #[test]
    fn all_methods_agree_sparse() {
        let g = three_state();
        let sparse = SparseGenerator::from_generator(&g);
        let (reference, _) = Solver::new(Method::Gth).solve(&g).unwrap();
        for method in ALL_METHODS {
            let (pi, _) = Solver::new(method).solve(&sparse).unwrap();
            assert!(
                (&pi - &reference).norm_inf() < 1e-8,
                "sparse {method:?} diverges from dense GTH"
            );
        }
    }

    #[test]
    fn default_method_is_gth() {
        assert_eq!(Method::default(), Method::Gth);
        let names: Vec<&str> = ALL_METHODS.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["gth", "iterative", "bicgstab"]);
    }

    #[test]
    fn sparse_direct_does_not_densify() {
        // A chain big enough that a densifying path would be O(n²)
        // memory; sparse GTH must solve it and agree with the Krylov tier.
        let n = 2_000;
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, 0.8));
            transitions.push((i + 1, i, 1.0));
        }
        transitions.push((n - 1, 0, 0.05));
        let g = SparseGenerator::from_transitions(n, &transitions).unwrap();
        let (direct, _) = Solver::new(Method::Gth).solve(&g).unwrap();
        let (krylov, _) = Solver::new(Method::BiCgStab).solve(&g).unwrap();
        assert!((&direct - &krylov).norm_inf() < 1e-8);
        assert!(residual_sparse(&g, &direct) < 1e-10);
    }

    #[test]
    fn krylov_handles_stiff_chain() {
        // Rates spanning 8 orders of magnitude.
        let g = Generator::builder(3)
            .rate(0, 1, 1e-4)
            .rate(1, 2, 1e4)
            .rate(2, 0, 1.0)
            .build()
            .unwrap();
        let sparse = SparseGenerator::from_generator(&g);
        let (reference, _) = Solver::new(Method::Gth).solve(&g).unwrap();
        let (pi, stats) = Solver::new(Method::BiCgStab).solve(&sparse).unwrap();
        assert!((&pi - &reference).norm_inf() < 1e-8);
        assert!(stats.sweeps() > 0);
    }

    #[test]
    fn empty_normalization_system_is_an_error() {
        let a = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        let out = solve_normalized(&a, 0.0, |_| unreachable!("no solve on zero rows"));
        assert!(matches!(
            out,
            Err(CtmcError::Numerical(LinalgError::InvalidInput { .. }))
        ));
    }

    #[test]
    fn chain_without_transitions_is_reducible() {
        let g = SparseGenerator::from_transitions(3, &[]).unwrap();
        let empty = SparseGenerator::from_transitions(0, &[]).unwrap();
        for method in ALL_METHODS {
            assert_eq!(
                Solver::new(method).solve(&g),
                Err(CtmcError::Reducible { classes: 3 })
            );
            assert!(matches!(
                Solver::new(method).solve(&empty),
                Err(CtmcError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn single_state_chain_is_trivial() {
        let sparse = SparseGenerator::from_transitions(1, &[]).unwrap();
        let dense = sparse.to_generator().unwrap();
        for method in ALL_METHODS {
            for (pi, stats) in [
                Solver::new(method).solve(&sparse).unwrap(),
                Solver::new(method).solve(&dense).unwrap(),
            ] {
                assert_eq!(pi.as_slice(), &[1.0]);
                assert_eq!(stats.sweeps(), 0);
            }
        }
    }

    #[test]
    fn iterative_handles_stiff_chain() {
        let g = Generator::builder(3)
            .rate(0, 1, 1e-4)
            .rate(1, 2, 1e4)
            .rate(2, 0, 1.0)
            .build()
            .unwrap();
        let sparse = SparseGenerator::from_generator(&g);
        let (pi, _) = Solver::new(Method::Iterative).solve(&sparse).unwrap();
        let (reference, _) = Solver::new(Method::Gth).solve(&g).unwrap();
        assert!((&pi - &reference).norm_inf() < 1e-8);
        assert!(residual_sparse(&sparse, &pi) < 1e-7);
    }

    #[test]
    fn iterative_matches_mm1k_closed_form() {
        let lambda = 0.4;
        let mu = 1.0;
        let k = 40;
        let g = mm1k_generator(lambda, mu, k).unwrap();
        let (pi, _) = Solver::new(Method::Iterative).solve(&g).unwrap();
        let closed = birth_death::Mm1k::new(lambda, mu, k).unwrap();
        for i in 0..=k {
            assert!((pi[i] - closed.probability(i)).abs() < 1e-10, "state {i}");
        }
    }

    #[test]
    fn stats_report_sweeps_and_residual() {
        let g = three_state();
        let sparse = SparseGenerator::from_generator(&g);
        for method in [Method::Iterative, Method::BiCgStab] {
            let (pi, stats) = Solver::new(method).solve(&sparse).unwrap();
            assert_eq!(stats.method(), method);
            assert!(stats.sweeps() > 0, "{method:?} reported no sweeps");
            assert!(stats.residual() < 1e-8, "{method:?}: {}", stats.residual());
            assert_eq!(stats.residual(), residual_sparse(&sparse, &pi));
        }
    }

    #[test]
    fn direct_method_reports_zero_sweeps() {
        let g = three_state();
        let sparse = SparseGenerator::from_generator(&g);
        let (_, stats) = Solver::new(Method::Gth).solve(&sparse).unwrap();
        assert_eq!(stats.sweeps(), 0);
        assert!(stats.residual() < 1e-10);
        let (_, dense_stats) = Solver::new(Method::Gth).solve(&g).unwrap();
        assert_eq!(dense_stats.sweeps(), 0);
        assert!(dense_stats.residual() < 1e-10);
    }

    #[test]
    fn solver_is_reusable_across_generators() {
        let solver = Solver::new(Method::BiCgStab).tolerance(1e-13);
        let a = three_state();
        let b = mm1k_generator(0.5, 1.0, 10).unwrap();
        let (pi_a, _) = solver.solve(&a).unwrap();
        let (pi_b, _) = solver.solve(&b).unwrap();
        assert!((pi_a.sum() - 1.0).abs() < 1e-12);
        assert!((pi_b.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn results_are_deterministic() {
        let g = mm1k_generator(0.9, 1.0, 60).unwrap();
        let sparse = SparseGenerator::from_generator(&g);
        for method in ALL_METHODS {
            let first = Solver::new(method).solve(&sparse).unwrap();
            let second = Solver::new(method).solve(&sparse).unwrap();
            assert_eq!(first.0, second.0, "{method:?} is not deterministic");
        }
    }
}

#[cfg(test)]
mod fallback_tests {
    use super::*;

    fn three_state() -> Generator {
        Generator::builder(3)
            .rate(0, 1, 2.0)
            .rate(1, 2, 1.0)
            .rate(2, 0, 4.0)
            .rate(1, 0, 0.5)
            .build()
            .unwrap()
    }

    fn fallback<'a>(g: impl Into<GeneratorRef<'a>>) -> Result<(DVector, SolveStats), CtmcError> {
        Solver::new(FALLBACK_CHAIN[0])
            .with_default_fallback()
            .solve(g)
    }

    /// Two 2-state clusters tied by 1e-9 coupling rates: irreducible, but
    /// the subdominant mode decays so slowly that Gauss–Seidel cannot
    /// converge within its budget.
    fn near_reducible() -> Generator {
        Generator::builder(4)
            .rate(0, 1, 1.0)
            .rate(1, 0, 2.0)
            .rate(2, 3, 3.0)
            .rate(3, 2, 1.0)
            .rate(1, 2, 1e-9)
            .rate(2, 1, 1e-9)
            .build()
            .unwrap()
    }

    fn assert_valid_distribution(pi: &DVector) {
        for x in pi.iter() {
            assert!(x.is_finite() && x >= 0.0, "bad probability {x}");
        }
        assert!((pi.sum() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn well_conditioned_chain_takes_first_method() {
        let g = three_state();
        let (gth, _) = Solver::new(Method::Gth).solve(&g).unwrap();
        let sparse = SparseGenerator::from_generator(&g);
        for (pi, stats) in [fallback(&g).unwrap(), fallback(&sparse).unwrap()] {
            assert_eq!(stats.method(), Method::BiCgStab);
            assert!(!stats.escalated());
            assert_valid_distribution(&pi);
            assert!((&pi - &gth).norm_inf() < 1e-10);
        }
    }

    #[test]
    fn builder_method_is_tried_first() {
        let (_, stats) = Solver::new(Method::Iterative)
            .with_default_fallback()
            .solve(&three_state())
            .unwrap();
        assert_eq!(stats.method(), Method::Iterative);
    }

    #[test]
    fn starved_krylov_escalates_to_gth() {
        // A ring with chords: ILU(0) drops fill-in, so one BiCGSTAB step
        // cannot converge.
        let g = SparseGenerator::from_transitions(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 4, 1.0),
                (4, 5, 2.0),
                (5, 0, 1.0),
                (0, 3, 0.5),
                (4, 1, 0.7),
                (2, 5, 0.3),
            ],
        )
        .unwrap();
        let (pi, stats) = Solver::new(Method::BiCgStab)
            .max_iters(1)
            .with_default_fallback()
            .solve(&g)
            .unwrap();
        assert_eq!(stats.method(), Method::Gth);
        let tried: Vec<Method> = stats.escalation().iter().map(|(m, _)| *m).collect();
        assert_eq!(tried, [Method::BiCgStab]);
        assert_valid_distribution(&pi);
    }

    #[test]
    fn near_reducible_chain_defeats_iterative_but_not_fallback() {
        let g = near_reducible();
        let sparse = SparseGenerator::from_generator(&g);
        // The iterative path alone gives up with the final residual in the
        // error (small: "almost converged", not diverged).
        match Solver::new(Method::Iterative).solve(&sparse) {
            Err(CtmcError::Numerical(dpm_linalg::LinalgError::NotConverged {
                residual, ..
            })) => assert!(
                residual.is_finite() && residual < 1.0,
                "residual {residual}"
            ),
            other => panic!("expected NotConverged, got {other:?}"),
        }
        // The fallback chain solves it: preconditioned BiCGSTAB handles the
        // 1e-9 coupling (ILU(0) on the 4×4 system is nearly exact), and
        // GTH backs it up.
        let (pi, stats) = fallback(&sparse).unwrap();
        assert_valid_distribution(&pi);
        assert!(residual_sparse(&sparse, &pi) < 1e-10);
        assert!(
            matches!(stats.method(), Method::BiCgStab | Method::Gth),
            "unexpected winner {:?}",
            stats.method()
        );
    }

    #[test]
    fn stiff_chain_solves_within_scaled_residual_bound() {
        // Rate ratio 1e9.
        let g = Generator::builder(3)
            .rate(0, 1, 1e-4)
            .rate(1, 2, 1e5)
            .rate(2, 0, 1.0)
            .build()
            .unwrap();
        let (pi, stats) = fallback(&g).unwrap();
        assert_valid_distribution(&pi);
        assert!(stats.residual() <= FALLBACK_RESIDUAL_SLACK * 1e5 * 1.05);
        let sparse = SparseGenerator::from_generator(&g);
        let (pi_s, _) = fallback(&sparse).unwrap();
        assert!((&pi - &pi_s).norm_inf() < 1e-8);
    }

    #[test]
    fn exhaustion_reports_every_attempt() {
        // Irreducible, but GTH degenerates in f64: RCM order [2, 1, 0]
        // eliminates state 0 first, and state 1's fill rate to state 2,
        // (1e-300 / 1) · 1e-300, underflows, leaving state 1 no rate to the
        // states before it. A zero iteration budget stops the two
        // iterative methods.
        let g = Generator::builder(3)
            .rate(1, 0, 1e-300)
            .rate(0, 1, 1.0)
            .rate(0, 2, 1e-300)
            .rate(2, 1, 1.0)
            .build()
            .unwrap();
        assert!(graph::is_irreducible(&g));
        let err = Solver::new(Method::BiCgStab)
            .max_iters(0)
            .with_default_fallback()
            .solve(&g)
            .unwrap_err();
        match err {
            CtmcError::FallbackExhausted { attempts } => {
                let methods: Vec<&str> = attempts.iter().map(|(m, _)| m.as_str()).collect();
                assert_eq!(methods, ["BiCgStab", "Gth", "Iterative"]);
                let gth_failure = &attempts[1].1;
                assert!(
                    gth_failure.contains("GTH elimination degenerate at state 1"),
                    "{gth_failure}"
                );
            }
            other => panic!("expected FallbackExhausted, got {other:?}"),
        }
    }

    #[test]
    fn gain_vector_survives_reducible_closed_classes() {
        // Two disjoint 2-state closed classes: no unique stationary
        // distribution, but a gain per class.
        let g = Generator::builder(4)
            .rate(0, 1, 1.0)
            .rate(1, 0, 2.0)
            .rate(2, 3, 3.0)
            .rate(3, 2, 1.0)
            .build()
            .unwrap();
        assert_eq!(
            fallback(&g).unwrap_err(),
            CtmcError::Reducible { classes: 2 }
        );
        let c = DVector::from_vec(vec![2.0, 4.0, 0.0, 8.0]);
        let gains = gain_vector(&g, &c).unwrap();
        // Class {0,1}: π = (2/3, 1/3) → gain 8/3; class {2,3}: π = (1/4, 3/4) → 6.
        assert!((gains[0] - 8.0 / 3.0).abs() < 1e-10);
        assert!((gains[2] - 6.0).abs() < 1e-10);
    }
}

#[cfg(test)]
mod gth_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::Dtmc;
    use dpm_linalg::DMatrix;

    /// The dense GTH the kernel replaced: the uniformized chain (margin
    /// 1.05), states eliminated from the last index down in natural order,
    /// back substitution without rescaling.
    fn reference_gth(generator: &Generator) -> Result<DVector, CtmcError> {
        let (dtmc, _) = generator.uniformize(1.05)?;
        let n = dtmc.n_states();
        let mut p = dtmc.matrix().clone();
        for k in (1..n).rev() {
            let s: f64 = (0..k).map(|j| p[(k, j)]).sum();
            if s <= 0.0 {
                return Err(CtmcError::Numerical(LinalgError::InvalidInput {
                    reason: format!("GTH elimination degenerate at state {k}"),
                }));
            }
            for i in 0..k {
                p[(i, k)] /= s;
            }
            for i in 0..k {
                let pik = p[(i, k)];
                if pik != 0.0 {
                    for j in 0..k {
                        let delta = pik * p[(k, j)];
                        p[(i, j)] += delta;
                    }
                }
            }
        }
        let mut pi = DVector::zeros(n);
        pi[0] = 1.0;
        for k in 1..n {
            let mut sum = 0.0;
            for i in 0..k {
                sum += pi[i] * p[(i, k)];
            }
            pi[k] = sum;
        }
        pi.normalize_l1().map_err(CtmcError::Numerical)?;
        Ok(pi)
    }

    /// Random irreducible chain on `n` states: a ring through a random
    /// relabelling plus a random number of extra edges, every rate
    /// log-uniform in `[1e-6, 1e6]`.
    fn irreducible_chain(n: usize) -> impl Strategy<Value = Generator> {
        let labels = prop::collection::vec(0.0f64..1.0, n);
        let ring = prop::collection::vec(-6.0f64..6.0, n);
        let extra = (0..n * (n - 1))
            .prop_flat_map(move |m| prop::collection::vec((0..n, 0..n, -6.0f64..6.0), m));
        (labels, ring, extra).prop_map(move |(labels, ring, extra)| {
            let mut relabel: Vec<usize> = (0..n).collect();
            relabel.sort_by(|&a, &b| labels[a].total_cmp(&labels[b]));
            let mut b = Generator::builder(n);
            for (r, &exponent) in ring.iter().enumerate() {
                b.add_rate(relabel[r], relabel[(r + 1) % n], 10f64.powf(exponent));
            }
            for (i, j, exponent) in extra {
                if i != j {
                    b.add_rate(i, j, 10f64.powf(exponent));
                }
            }
            b.build().unwrap()
        })
    }

    /// `I + G/Λ` for a power of two `Λ ≥` the largest exit rate: its
    /// off-diagonal entries are the generator's rates scaled exactly.
    fn exactly_scaled_dtmc(generator: &Generator) -> Dtmc {
        let lambda = 2f64.powi(generator.max_exit_rate().log2().ceil() as i32);
        let n = generator.n_states();
        let p = DMatrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0 - generator.exit_rate(i) / lambda
            } else {
                generator.rate(i, j) / lambda
            }
        });
        Dtmc::from_matrix(p).unwrap()
    }

    proptest! {
        #[test]
        fn dense_sparse_and_dtmc_input_share_one_elimination(
            g in (2usize..41).prop_flat_map(irreducible_chain)
        ) {
            let (dense, _) = Solver::new(Method::Gth).solve(&g).unwrap();
            let sparse = SparseGenerator::from_generator(&g);
            let (from_sparse, _) = Solver::new(Method::Gth).solve(&sparse).unwrap();
            let from_dtmc = exactly_scaled_dtmc(&g).stationary_gth().unwrap();
            let bits = |pi: &DVector| pi.iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(&dense), bits(&from_sparse));
            prop_assert_eq!(bits(&dense), bits(&from_dtmc));
            let reference = reference_gth(&g).unwrap();
            for (i, (x, r)) in dense.iter().zip(reference.iter()).enumerate() {
                prop_assert!(
                    (x - r).abs() <= 1e-10 * r.abs(),
                    "state {i}: {x:e} vs reference {r:e}"
                );
            }
        }
    }

    #[test]
    fn gth_solves_rates_spanning_600_orders() {
        // π_0 / π_1 = 1e-600: below the f64 range, so exactly 0. The
        // uniformized elimination degenerated here (1e-300 / 1.05e300
        // underflows in the transition matrix).
        let g = Generator::builder(2)
            .rate(0, 1, 1e300)
            .rate(1, 0, 1e-300)
            .build()
            .unwrap();
        let sparse = SparseGenerator::from_generator(&g);
        for (pi, stats) in [
            Solver::new(Method::Gth).solve(&g).unwrap(),
            Solver::new(Method::Gth).solve(&sparse).unwrap(),
        ] {
            assert_eq!(pi.as_slice(), &[0.0, 1.0]);
            assert_eq!(stats.residual(), 1e-300);
        }
    }

    #[test]
    fn back_substitution_rescales_past_the_f64_range() {
        // Birth–death with ratio 0.01: π_i ∝ 1e-2i spans 1e-798, and the
        // RCM order starts the back substitution at state 399, the
        // smallest, so π grows 100× per state from there.
        let n = 400;
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, 0.01));
            transitions.push((i + 1, i, 1.0));
        }
        let g = SparseGenerator::from_transitions(n, &transitions).unwrap();
        let (pi, stats) = Solver::new(Method::Gth).solve(&g).unwrap();
        assert!(pi.iter().all(f64::is_finite));
        assert!((pi.sum() - 1.0).abs() < 1e-12);
        assert!(stats.residual() <= FALLBACK_RESIDUAL_SLACK * g.max_exit_rate().max(1.0));
        // The closed form π_i = (1 − ρ) ρ^i, to the rounding floor.
        for i in 0..100 {
            let exact = 0.99 * 0.01f64.powi(i as i32);
            assert!((pi[i] - exact).abs() <= 1e-13 * exact, "state {i}");
        }
        assert_eq!(pi[n - 1], 0.0);
    }
}

#[cfg(test)]
mod gain_vector_tests {
    use super::*;

    #[test]
    fn gain_vector_matches_the_stationary_average_on_unichain_chains() {
        let g = Generator::builder(3)
            .rate(0, 1, 1.0)
            .rate(1, 2, 2.0)
            .rate(2, 1, 1.0)
            .build()
            .unwrap();
        let c = DVector::from_vec(vec![5.0, 1.0, 4.0]);
        let gains = gain_vector(&g, &c).unwrap();
        let (pi, _) = Solver::new(Method::Gth).solve(&g).unwrap();
        let scalar = long_run_average(&pi, &c);
        for i in 0..3 {
            assert!((gains[i] - scalar).abs() < 1e-10, "state {i}");
        }
    }

    #[test]
    fn gain_vector_separates_disjoint_classes() {
        let g = Generator::builder(4)
            .rate(0, 1, 1.0)
            .rate(1, 0, 1.0)
            .rate(2, 3, 1.0)
            .rate(3, 2, 3.0)
            .build()
            .unwrap();
        let c = DVector::from_vec(vec![2.0, 4.0, 0.0, 8.0]);
        let gains = gain_vector(&g, &c).unwrap();
        assert!((gains[0] - 3.0).abs() < 1e-10);
        assert!((gains[1] - 3.0).abs() < 1e-10);
        // Class {2, 3}: pi = (3/4, 1/4); gain = 2.
        assert!((gains[2] - 2.0).abs() < 1e-10);
        assert!((gains[3] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn transient_gains_weight_absorption_probabilities() {
        // 0 -> 1 (rate 1), 0 -> 2 (rate 3); both absorbing.
        let g = Generator::builder(3)
            .rate(0, 1, 1.0)
            .rate(0, 2, 3.0)
            .build()
            .unwrap();
        let c = DVector::from_vec(vec![100.0, 8.0, 4.0]);
        let gains = gain_vector(&g, &c).unwrap();
        assert!((gains[0] - 5.0).abs() < 1e-10);
        assert_eq!(gains[1], 8.0);
        assert_eq!(gains[2], 4.0);
    }

    #[test]
    fn chained_transient_states_propagate() {
        // 0 -> 1 -> 2 (absorbing, cost 7).
        let g = Generator::builder(3)
            .rate(0, 1, 2.0)
            .rate(1, 2, 5.0)
            .build()
            .unwrap();
        let c = DVector::from_vec(vec![0.0, 0.0, 7.0]);
        let gains = gain_vector(&g, &c).unwrap();
        assert!((gains[0] - 7.0).abs() < 1e-10);
        assert!((gains[1] - 7.0).abs() < 1e-10);
    }

    #[test]
    fn fast_class_block_factors_with_a_scaled_gain_column() {
        // Class {0, 1} with rates 1e15 and 1e-2, fed by transient state 2.
        // A unit gain column's pivot (≈ 1) would fall under the threshold
        // 1e-13 · 1e15; the column scaled to −2^49 keeps it on the
        // generator's scale.
        let g = SparseGenerator::from_transitions(3, &[(0, 1, 1e15), (1, 0, 1e-2), (2, 0, 1.0)])
            .unwrap();
        let c = DVector::from_vec(vec![5.0, 3.0, 7.0]);
        let factors = ChainFactors::new(&g).unwrap();
        assert_eq!(factors.class_fallbacks().count(), 0);
        let (gains, bias) = factors.solve(&c).unwrap();
        // π ≈ (1e-17, 1): the gain is the cost of state 1.
        for i in 0..3 {
            assert!((gains[i] - 3.0).abs() < 1e-12, "state {i}: {}", gains[i]);
        }
        assert_eq!(gain_vector(&g.to_generator().unwrap(), &c).unwrap(), gains);
        // v_0 = 0, v_1 = (g − c_0) / 1e15 and v_2 = c_2 − g.
        assert_eq!(bias[0], 0.0);
        assert!((bias[1] + 2e-15).abs() < 1e-27, "bias {}", bias[1]);
        assert!((bias[2] - 4.0).abs() < 1e-12, "bias {}", bias[2]);
    }

    #[test]
    fn singular_class_block_takes_its_gain_from_gth_and_refuses_its_bias() {
        // Class {0, 1, 2}: 0 → 1 at 1, 1 → 0 and 1 → 2 at 1e15, 2 → 1 at
        // 1e-3, fed by transient state 3. After the 1e15 pivot the second
        // is 0.5, under the threshold 1e-13 · 2e15, so the class falls back
        // to its stationary solve.
        let g = SparseGenerator::from_transitions(
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1e15),
                (1, 2, 1e15),
                (2, 1, 1e-3),
                (3, 0, 1.0),
            ],
        )
        .unwrap();
        let c = DVector::from_vec(vec![5.0, 3.0, 7.0, 9.0]);
        let factors = ChainFactors::new(&g).unwrap();
        let fallbacks: Vec<&SolveStats> = factors.class_fallbacks().collect();
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].method(), Method::Gth);
        let gains = factors.gains(&c).unwrap();
        // π ∝ (1e15, 1, 1e18).
        let expected = (5e15 + 3.0 + 7e18) / (1e15 + 1.0 + 1e18);
        for i in 0..4 {
            assert!(
                (gains[i] - expected).abs() < 1e-12 * expected,
                "state {i}: {}",
                gains[i]
            );
        }
        assert_eq!(gain_vector(&g.to_generator().unwrap(), &c).unwrap(), gains);
        assert_eq!(
            factors.solve(&c).unwrap_err(),
            CtmcError::SingularBlock {
                block: ChainBlock::ClosedClass { first: 0 },
                states: 3,
                n_states: 4,
                pivot: 1,
            }
        );
    }

    #[test]
    fn singular_transient_block_is_named() {
        // Transient states 1 and 2 leave only through a rate far below
        // the pivot threshold of their 1e15 exchange.
        let g = SparseGenerator::from_transitions(3, &[(1, 2, 1e15), (2, 1, 1e15), (1, 0, 1e-3)])
            .unwrap();
        let err = ChainFactors::new(&g).unwrap_err();
        assert!(matches!(
            err,
            CtmcError::SingularBlock {
                block: ChainBlock::Transient,
                states: 2,
                n_states: 3,
                ..
            }
        ));
        assert!(err
            .to_string()
            .starts_with("singular transient block, 2 of 3 states, pivot"));
    }

    #[test]
    fn gain_vector_validates_length() {
        let g = Generator::builder(2)
            .rate(0, 1, 1.0)
            .rate(1, 0, 1.0)
            .build()
            .unwrap();
        assert!(gain_vector(&g, &DVector::zeros(3)).is_err());
    }
}
