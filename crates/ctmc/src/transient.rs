//! Transient analysis by uniformization.
//!
//! The state distribution of a CTMC at time `t` is
//! `π(t) = Σ_k Poisson(Λt; k) · π(0) Pᵏ` where `P = I + G/Λ` is the
//! uniformized chain. The Poisson weights are computed outward from the
//! mode (a simplified Fox–Glynn scheme) so the sum neither under- nor
//! overflows even for large `Λt`, and the series is truncated once the
//! captured probability mass reaches `1 − ε`. The work grows with `Λt`:
//! reaching the left edge of the window takes about `Λt` steps of the
//! uniformized chain, so long horizons are better served by the stationary
//! distribution, and `Λt` is capped at [`MAX_UNIFORMIZED_STEPS`].

use dpm_linalg::DVector;

use crate::{CtmcError, Generator};

/// Default truncation error for the Poisson series.
pub const DEFAULT_EPSILON: f64 = 1e-12;

/// Largest `Λt` that [`distribution_at`] accepts (`Λ` is the largest exit
/// rate). Up to this rate the Poisson window at [`DEFAULT_EPSILON`] ends by
/// its weight test, within 10⁷ terms of the mode, and the step count
/// stays far from `usize` overflow. The work is about `Λt` steps of the
/// uniformized chain, so horizons near the limit take hours to days.
pub const MAX_UNIFORMIZED_STEPS: f64 = 1e12;

/// Most Poisson terms the window keeps past its mode.
const WINDOW_TAIL_TERMS: usize = 10_000_000;

/// Poisson weights `{k: w_k}` over a contiguous range `[left, left+len)`,
/// normalized to sum to one, covering all but `epsilon` of the mass.
#[derive(Debug, Clone, PartialEq)]
struct PoissonWindow {
    left: usize,
    weights: Vec<f64>,
}

fn poisson_window(rate: f64, epsilon: f64) -> PoissonWindow {
    debug_assert!(rate >= 0.0);
    // dpm-lint: allow(float_eq, reason = "exact degenerate-case fast path: a zero uniformization rate has a closed form")
    if rate == 0.0 {
        return PoissonWindow {
            left: 0,
            weights: vec![1.0],
        };
    }
    let mode = rate.floor() as usize;
    // Unnormalized weights relative to the mode; ratios
    // w_{k+1}/w_k = rate/(k+1) keep everything in range.
    let mut right_weights = vec![1.0f64];
    let mut k = mode;
    loop {
        // dpm-lint: allow(no_panic, reason = "right_weights is seeded with one element before this loop")
        let next = right_weights.last().expect("non-empty") * rate / (k + 1) as f64;
        if next < epsilon * 1e-3 {
            break;
        }
        right_weights.push(next);
        k += 1;
        if k - mode > WINDOW_TAIL_TERMS {
            break;
        }
    }
    // Weights for indices mode-1, mode-2, ... until they become negligible.
    let mut left_weights = Vec::new();
    let mut w = 1.0f64;
    let mut j = mode;
    while j > 0 {
        // w_{j-1} = w_j * j / rate
        w *= j as f64 / rate;
        if w < epsilon * 1e-3 {
            break;
        }
        left_weights.push(w);
        j -= 1;
    }
    // Assemble: left part reversed, then the mode and right part.
    let mut weights: Vec<f64> = left_weights.into_iter().rev().collect();
    let first = mode - weights.len();
    weights.extend(right_weights);
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    PoissonWindow {
        left: first,
        weights,
    }
}

/// Computes the transient distribution `π(t)` from the initial distribution
/// `pi0`.
///
/// # Errors
///
/// Returns [`CtmcError::InvalidParameter`] for a negative or non-finite
/// `t`, for `Λt` above [`MAX_UNIFORMIZED_STEPS`] (`Λ` is the largest exit
/// rate), or for a `pi0` of the wrong length or not summing to one.
///
/// # Examples
///
/// ```
/// use dpm_ctmc::{transient, Generator};
/// use dpm_linalg::DVector;
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// let g = Generator::builder(2).rate(0, 1, 1.0).rate(1, 0, 1.0).build()?;
/// let pi0 = DVector::from_vec(vec![1.0, 0.0]);
/// let pi = transient::distribution_at(&g, &pi0, 50.0)?;
/// // Long horizon: converged to the (1/2, 1/2) stationary distribution.
/// assert!((pi[0] - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn distribution_at(generator: &Generator, pi0: &DVector, t: f64) -> Result<DVector, CtmcError> {
    distribution_at_with(generator, pi0, t, DEFAULT_EPSILON)
}

/// As [`distribution_at`] with an explicit truncation error `epsilon`.
///
/// # Errors
///
/// See [`distribution_at`]; additionally rejects non-positive `epsilon`.
pub fn distribution_at_with(
    generator: &Generator,
    pi0: &DVector,
    t: f64,
    epsilon: f64,
) -> Result<DVector, CtmcError> {
    let n = generator.n_states();
    if pi0.len() != n {
        return Err(CtmcError::InvalidParameter {
            reason: format!("initial distribution length {} != {n}", pi0.len()),
        });
    }
    if (pi0.sum() - 1.0).abs() > 1e-9 || pi0.iter().any(|p| p < -1e-12) {
        return Err(CtmcError::InvalidParameter {
            reason: "initial distribution must be a probability vector".to_owned(),
        });
    }
    if !(t >= 0.0 && t.is_finite()) {
        return Err(CtmcError::InvalidParameter {
            reason: format!("time {t} must be finite and non-negative"),
        });
    }
    if epsilon <= 0.0 || epsilon.is_nan() {
        return Err(CtmcError::InvalidParameter {
            reason: format!("epsilon {epsilon} must be positive"),
        });
    }
    // dpm-lint: allow(float_eq, reason = "exact degenerate-case fast paths: zero horizon or a chain with no transitions")
    if t == 0.0 || generator.max_exit_rate() == 0.0 {
        return Ok(pi0.clone());
    }

    let (dtmc, lambda) = generator.uniformize(1.0)?;
    let window = poisson_window(uniformized_steps(lambda, t)?, epsilon);

    let mut current = pi0.clone();
    // Advance to the left edge of the window.
    for _ in 0..window.left {
        current = dtmc.step(&current);
    }
    let mut result = DVector::zeros(n);
    for (offset, &w) in window.weights.iter().enumerate() {
        if offset > 0 {
            current = dtmc.step(&current);
        }
        result.axpy(w, &current);
    }
    // Weights were normalized, so result is a distribution up to rounding.
    result.normalize_l1().map_err(CtmcError::Numerical)?;
    Ok(result)
}

/// The Poisson rate `Λt` of horizon `t` at uniformization rate `lambda`,
/// checked against [`MAX_UNIFORMIZED_STEPS`].
fn uniformized_steps(lambda: f64, t: f64) -> Result<f64, CtmcError> {
    let rate = lambda * t;
    if rate > MAX_UNIFORMIZED_STEPS {
        return Err(CtmcError::InvalidParameter {
            reason: format!(
                "horizon {t} at uniformization rate {lambda} needs {rate:e} steps \
                 (at most {MAX_UNIFORMIZED_STEPS:e})"
            ),
        });
    }
    Ok(rate)
}

/// Probability of being in state `j` at time `t` having started in state
/// `i` — the paper's `p_{i⇒j}(t)`.
///
/// # Errors
///
/// As [`distribution_at`], plus [`CtmcError::StateOutOfRange`] for a bad
/// start state.
pub fn transition_probability(
    generator: &Generator,
    from: usize,
    to: usize,
    t: f64,
) -> Result<f64, CtmcError> {
    let n = generator.n_states();
    if from >= n || to >= n {
        return Err(CtmcError::StateOutOfRange {
            state: from.max(to),
            n_states: n,
        });
    }
    let mut pi0 = DVector::zeros(n);
    pi0[from] = 1.0;
    let pi = distribution_at(generator, &pi0, t)?;
    Ok(pi[to])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_window_sums_to_one() {
        for rate in [0.1, 1.0, 7.3, 100.0, 3000.0] {
            let w = poisson_window(rate, 1e-12);
            let total: f64 = w.weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "rate {rate}");
        }
    }

    #[test]
    fn poisson_window_mode_has_largest_weight() {
        let rate = 25.7;
        let w = poisson_window(rate, 1e-12);
        let mode = rate.floor() as usize;
        let mode_weight = w.weights[mode - w.left];
        assert!(w.weights.iter().all(|&x| x <= mode_weight + 1e-15));
    }

    #[test]
    fn zero_rate_window_is_point_mass() {
        let w = poisson_window(0.0, 1e-12);
        assert_eq!(w.left, 0);
        assert_eq!(w.weights, vec![1.0]);
    }

    #[test]
    fn two_state_matches_closed_form() {
        // 0 -> 1 at rate a, 1 -> 0 at rate b: p_{0->1}(t) closed form.
        let a = 2.0;
        let b = 3.0;
        let g = Generator::builder(2)
            .rate(0, 1, a)
            .rate(1, 0, b)
            .build()
            .unwrap();
        for &t in &[0.05, 0.3, 1.0, 4.0] {
            let numeric = transition_probability(&g, 0, 1, t).unwrap();
            let exact = a / (a + b) * (1.0 - (-(a + b) * t).exp());
            assert!(
                (numeric - exact).abs() < 1e-9,
                "t={t}: {numeric} vs {exact}"
            );
        }
    }

    #[test]
    fn time_zero_returns_initial() {
        let g = Generator::builder(2)
            .rate(0, 1, 1.0)
            .rate(1, 0, 1.0)
            .build()
            .unwrap();
        let pi0 = DVector::from_vec(vec![0.3, 0.7]);
        let pi = distribution_at(&g, &pi0, 0.0).unwrap();
        assert_eq!(pi, pi0);
    }

    #[test]
    fn long_horizon_converges_to_stationary() {
        let g = Generator::builder(3)
            .rate(0, 1, 1.0)
            .rate(1, 2, 2.0)
            .rate(2, 0, 3.0)
            .build()
            .unwrap();
        let pi0 = DVector::from_vec(vec![1.0, 0.0, 0.0]);
        let transient = distribution_at(&g, &pi0, 200.0).unwrap();
        let stationary = crate::stationary::Solver::new(crate::stationary::Method::Gth)
            .solve(&g)
            .unwrap()
            .0;
        assert!((&transient - &stationary).norm_inf() < 1e-9);
    }

    #[test]
    fn distribution_stays_normalized_along_the_way() {
        let g = Generator::builder(2)
            .rate(0, 1, 10.0)
            .rate(1, 0, 0.1)
            .build()
            .unwrap();
        let pi0 = DVector::from_vec(vec![1.0, 0.0]);
        for &t in &[0.01, 0.1, 1.0, 10.0] {
            let pi = distribution_at(&g, &pi0, t).unwrap();
            assert!((pi.sum() - 1.0).abs() < 1e-12);
            assert!(pi.iter().all(|p| p >= 0.0));
        }
    }

    #[test]
    fn validates_inputs() {
        let g = Generator::builder(2)
            .rate(0, 1, 1.0)
            .rate(1, 0, 1.0)
            .build()
            .unwrap();
        let pi0 = DVector::from_vec(vec![1.0, 0.0]);
        assert!(distribution_at(&g, &pi0, -1.0).is_err());
        assert!(distribution_at(&g, &DVector::zeros(2), 1.0).is_err());
        assert!(distribution_at(&g, &DVector::zeros(3), 1.0).is_err());
        assert!(distribution_at_with(&g, &pi0, 1.0, 0.0).is_err());
        assert!(transition_probability(&g, 0, 5, 1.0).is_err());
    }

    #[test]
    fn rejects_a_horizon_past_the_step_limit() {
        let g = Generator::builder(2)
            .rate(0, 1, 1.0)
            .rate(1, 0, 1.0)
            .build()
            .unwrap();
        let pi0 = DVector::from_vec(vec![1.0, 0.0]);
        for t in [1e300, 2.0 * MAX_UNIFORMIZED_STEPS] {
            assert!(matches!(
                distribution_at(&g, &pi0, t),
                Err(CtmcError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn step_limit_admits_long_warm_ups_and_bounds_the_window() {
        // `examples/transient_warmup.rs` uniformizes at about 1e6 (the
        // instant rate) and asks for t = 300.
        assert_eq!(uniformized_steps(1e6, 300.0).unwrap(), 3e8);
        assert!(uniformized_steps(1.0, MAX_UNIFORMIZED_STEPS).is_ok());
        assert!(uniformized_steps(1.0, 1.5 * MAX_UNIFORMIZED_STEPS).is_err());
        // Gaussian tail: the window's weight test stops `z·√(Λt)` past the
        // mode, with `exp(−z²/2)` the cut-off weight.
        let z = (2.0 * (1.0 / (DEFAULT_EPSILON * 1e-3)).ln()).sqrt();
        assert!(z * MAX_UNIFORMIZED_STEPS.sqrt() < WINDOW_TAIL_TERMS as f64);
    }

    #[test]
    fn absorbing_chain_accumulates_in_absorbing_state() {
        let g = Generator::builder(2).rate(0, 1, 1.0).build().unwrap();
        let p = transition_probability(&g, 0, 1, 3.0).unwrap();
        let exact = 1.0 - (-3.0f64).exp();
        assert!((p - exact).abs() < 1e-9);
    }
}
