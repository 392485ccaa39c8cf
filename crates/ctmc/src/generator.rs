use std::fmt;

use dpm_linalg::DMatrix;

use crate::CtmcError;

/// Validation slack for generator rows: row sums must be within this of zero,
/// relative to the largest rate magnitude in the row.
pub(crate) const ROW_SUM_TOL: f64 = 1e-9;

/// A validated transition-rate (generator) matrix of a continuous-time
/// Markov chain (paper Eqns. 2.1–2.4).
///
/// Invariants enforced at construction:
///
/// * square, with at least one state;
/// * all entries finite;
/// * off-diagonal entries (transition rates `s_{i,j}`) non-negative;
/// * each row sums to zero — the diagonal holds `-Σ_{j≠i} s_{i,j}`
///   (the paper writes the diagonal as `-s_{i,i}` with
///   `s_{i,i} = Σ_{j≠i} s_{i,j}`, Eqn. 2.4).
///
/// # Examples
///
/// ```
/// use dpm_ctmc::Generator;
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// let g = Generator::builder(2).rate(0, 1, 2.0).rate(1, 0, 5.0).build()?;
/// assert_eq!(g.rate(0, 1), 2.0);
/// assert_eq!(g.exit_rate(0), 2.0);
/// assert_eq!(g.matrix()[(0, 0)], -2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Generator {
    matrix: DMatrix,
}

impl Generator {
    /// Starts building a generator for a chain with `n_states` states.
    #[must_use]
    pub fn builder(n_states: usize) -> GeneratorBuilder {
        GeneratorBuilder::new(n_states)
    }

    /// Validates an existing matrix as a generator.
    ///
    /// The diagonal must already contain the negated exit rates; use
    /// [`Generator::from_off_diagonal`] to have the diagonal filled in.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidGenerator`] if any invariant fails.
    pub fn from_matrix(matrix: DMatrix) -> Result<Self, CtmcError> {
        if !matrix.is_square() || matrix.nrows() == 0 {
            return Err(CtmcError::InvalidGenerator {
                reason: format!(
                    "generator must be square and non-empty, got {}x{}",
                    matrix.nrows(),
                    matrix.ncols()
                ),
            });
        }
        if !matrix.is_finite() {
            return Err(CtmcError::InvalidGenerator {
                reason: "generator contains non-finite entries".to_owned(),
            });
        }
        let n = matrix.nrows();
        for i in 0..n {
            let row = matrix.row(i);
            let scale = row.iter().fold(1.0f64, |m, x| m.max(x.abs()));
            let sum: f64 = row.iter().sum();
            if sum.abs() > ROW_SUM_TOL * scale {
                return Err(CtmcError::InvalidGenerator {
                    reason: format!("row {i} sums to {sum:e}, expected 0"),
                });
            }
            for (j, &x) in row.iter().enumerate() {
                if j != i && x < 0.0 {
                    return Err(CtmcError::InvalidGenerator {
                        reason: format!("negative off-diagonal rate {x} at ({i}, {j})"),
                    });
                }
            }
            if row[i] > 0.0 {
                return Err(CtmcError::InvalidGenerator {
                    reason: format!("positive diagonal entry {} at state {i}", row[i]),
                });
            }
        }
        Ok(Generator { matrix })
    }

    /// Builds a generator from a matrix of off-diagonal rates, overwriting
    /// the diagonal with the negated row sums.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidGenerator`] if the matrix is not square,
    /// contains non-finite entries, or has negative off-diagonal rates.
    pub fn from_off_diagonal(mut rates: DMatrix) -> Result<Self, CtmcError> {
        if !rates.is_square() || rates.nrows() == 0 {
            return Err(CtmcError::InvalidGenerator {
                reason: format!(
                    "generator must be square and non-empty, got {}x{}",
                    rates.nrows(),
                    rates.ncols()
                ),
            });
        }
        let n = rates.nrows();
        for i in 0..n {
            rates[(i, i)] = 0.0;
            let sum: f64 = rates.row(i).iter().sum();
            rates[(i, i)] = -sum;
        }
        Generator::from_matrix(rates)
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.matrix.nrows()
    }

    /// Transition rate `s_{i,j}` from state `i` to state `j` (`i ≠ j`), or
    /// the diagonal entry `-exit_rate(i)` when `i == j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        self.matrix[(i, j)]
    }

    /// Total exit rate of state `i` (the paper's `s_{i,i}`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn exit_rate(&self, i: usize) -> f64 {
        -self.matrix[(i, i)]
    }

    /// Largest exit rate over all states — the minimal valid uniformization
    /// constant.
    #[must_use]
    pub fn max_exit_rate(&self) -> f64 {
        (0..self.n_states())
            .map(|i| self.exit_rate(i))
            .fold(0.0, f64::max)
    }

    /// Borrows the underlying matrix.
    #[must_use]
    pub fn matrix(&self) -> &DMatrix {
        &self.matrix
    }

    /// Consumes the generator, returning the underlying matrix.
    #[must_use]
    pub fn into_matrix(self) -> DMatrix {
        self.matrix
    }

    /// Iterates over the non-zero off-diagonal transitions as
    /// `(from, to, rate)` triples.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n_states();
        (0..n).flat_map(move |i| {
            (0..n).filter_map(move |j| {
                let r = self.matrix[(i, j)];
                if i != j && r > 0.0 {
                    Some((i, j, r))
                } else {
                    None
                }
            })
        })
    }

    /// The generator of the closed class `members` (ascending): no rate
    /// leaves a closed class, so its rows are copied entry for entry.
    pub(crate) fn closed_class(&self, members: &[usize]) -> Generator {
        let k = members.len();
        Generator {
            matrix: DMatrix::from_fn(k, k, |a, b| self.matrix[(members[a], members[b])]),
        }
    }

    /// Uniformizes the chain: returns the discrete-time transition matrix
    /// `P = I + G/Λ` and the uniformization constant `Λ`.
    ///
    /// `Λ` is chosen as `max_exit_rate * margin`; `margin` must be finite
    /// and ≥ 1, and a small slack (e.g. 1.02) guarantees strictly positive
    /// self-loop probabilities, which makes the uniformized chain aperiodic.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidParameter`] if `margin` is below 1, `NaN`
    /// or `∞`, or if every state is absorbing (`max_exit_rate == 0`).
    pub fn uniformize(&self, margin: f64) -> Result<(crate::Dtmc, f64), CtmcError> {
        if !(margin >= 1.0 && margin.is_finite()) {
            return Err(CtmcError::InvalidParameter {
                reason: format!("uniformization margin {margin} must be finite and >= 1"),
            });
        }
        let lambda = self.max_exit_rate() * margin;
        if lambda <= 0.0 {
            return Err(CtmcError::InvalidParameter {
                reason: "cannot uniformize a chain with no transitions".to_owned(),
            });
        }
        let n = self.n_states();
        let p = DMatrix::from_fn(n, n, |i, j| {
            let base = if i == j { 1.0 } else { 0.0 };
            base + self.matrix[(i, j)] / lambda
        });
        let dtmc = crate::Dtmc::from_matrix(p)?;
        Ok((dtmc, lambda))
    }
}

impl fmt::Display for Generator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Generator ({} states)\n{}", self.n_states(), self.matrix)
    }
}

/// Incremental builder for [`Generator`] matrices.
///
/// Rates added with [`GeneratorBuilder::rate`] accumulate, so parallel
/// transitions between the same pair of states merge naturally. The diagonal
/// is filled in by [`GeneratorBuilder::build`].
#[derive(Debug, Clone)]
pub struct GeneratorBuilder {
    n_states: usize,
    rates: DMatrix,
    error: Option<CtmcError>,
}

impl GeneratorBuilder {
    /// Creates a builder for a chain with `n_states` states.
    #[must_use]
    pub fn new(n_states: usize) -> Self {
        GeneratorBuilder {
            n_states,
            rates: DMatrix::zeros(n_states, n_states),
            error: None,
        }
    }

    /// Adds `rate` to the transition rate from state `from` to state `to`.
    ///
    /// Errors (out-of-range states, negative or non-finite rates, self
    /// loops) are deferred and reported by [`GeneratorBuilder::build`].
    #[must_use]
    pub fn rate(mut self, from: usize, to: usize, rate: f64) -> Self {
        self.add_rate(from, to, rate);
        self
    }

    /// Non-consuming variant of [`GeneratorBuilder::rate`] for use in loops.
    pub fn add_rate(&mut self, from: usize, to: usize, rate: f64) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        if from >= self.n_states || to >= self.n_states {
            self.error = Some(CtmcError::StateOutOfRange {
                state: from.max(to),
                n_states: self.n_states,
            });
        } else if from == to {
            self.error = Some(CtmcError::InvalidGenerator {
                reason: format!("explicit self-loop rate at state {from}; diagonals are derived"),
            });
        } else if !rate.is_finite() || rate < 0.0 {
            self.error = Some(CtmcError::InvalidGenerator {
                reason: format!("rate {rate} from {from} to {to} must be finite and >= 0"),
            });
        } else {
            self.rates[(from, to)] += rate;
        }
        self
    }

    /// Finalizes the generator, computing the diagonal.
    ///
    /// # Errors
    ///
    /// Returns the first error recorded while adding rates, or a validation
    /// error from [`Generator::from_off_diagonal`].
    pub fn build(self) -> Result<Generator, CtmcError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Generator::from_off_diagonal(self.rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_rates() {
        let g = Generator::builder(2)
            .rate(0, 1, 1.0)
            .rate(0, 1, 2.0)
            .rate(1, 0, 4.0)
            .build()
            .unwrap();
        assert_eq!(g.rate(0, 1), 3.0);
        assert_eq!(g.exit_rate(0), 3.0);
        assert_eq!(g.exit_rate(1), 4.0);
        assert_eq!(g.max_exit_rate(), 4.0);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let err = Generator::builder(2).rate(0, 5, 1.0).build().unwrap_err();
        assert!(matches!(err, CtmcError::StateOutOfRange { state: 5, .. }));
    }

    #[test]
    fn builder_rejects_self_loop() {
        let err = Generator::builder(2).rate(1, 1, 1.0).build().unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
    }

    #[test]
    fn builder_rejects_negative_rate() {
        let err = Generator::builder(2).rate(0, 1, -1.0).build().unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
    }

    #[test]
    fn builder_reports_first_error() {
        let err = Generator::builder(2)
            .rate(0, 1, -1.0)
            .rate(0, 9, 1.0)
            .build()
            .unwrap_err();
        // Negative rate came first.
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
    }

    #[test]
    fn from_matrix_validates_row_sums() {
        let m = DMatrix::from_rows(&[&[-1.0, 2.0], &[1.0, -1.0]]).unwrap();
        assert!(Generator::from_matrix(m).is_err());
    }

    #[test]
    fn from_matrix_validates_sign_pattern() {
        let m = DMatrix::from_rows(&[&[1.0, -1.0], &[0.0, 0.0]]).unwrap();
        assert!(Generator::from_matrix(m).is_err());
    }

    #[test]
    fn from_matrix_rejects_empty_and_non_square() {
        assert!(Generator::from_matrix(DMatrix::zeros(0, 0)).is_err());
        assert!(Generator::from_matrix(DMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn from_off_diagonal_fills_diagonal() {
        let m = DMatrix::from_rows(&[&[99.0, 2.0], &[3.0, 77.0]]).unwrap();
        let g = Generator::from_off_diagonal(m).unwrap();
        assert_eq!(g.matrix()[(0, 0)], -2.0);
        assert_eq!(g.matrix()[(1, 1)], -3.0);
    }

    #[test]
    fn transitions_iterates_nonzero() {
        let g = Generator::builder(3)
            .rate(0, 1, 1.0)
            .rate(2, 0, 5.0)
            .build()
            .unwrap();
        let ts: Vec<_> = g.transitions().collect();
        assert_eq!(ts, vec![(0, 1, 1.0), (2, 0, 5.0)]);
    }

    #[test]
    fn uniformize_produces_stochastic_matrix() {
        let g = Generator::builder(2)
            .rate(0, 1, 2.0)
            .rate(1, 0, 6.0)
            .build()
            .unwrap();
        let (p, lambda) = g.uniformize(1.02).unwrap();
        assert!((lambda - 6.0 * 1.02).abs() < 1e-12);
        // Self-loop probabilities strictly positive thanks to the margin.
        assert!(p.probability(1, 1) > 0.0);
    }

    #[test]
    fn uniformize_rejects_bad_margin_and_absorbing_chain() {
        let g = Generator::builder(2).rate(0, 1, 1.0).build().unwrap();
        for margin in [0.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    g.uniformize(margin),
                    Err(CtmcError::InvalidParameter { .. })
                ),
                "margin {margin}"
            );
        }
        // A zero matrix is a valid generator (every state absorbing) but
        // cannot be uniformized.
        let all_absorbing = Generator::from_matrix(DMatrix::zeros(2, 2)).unwrap();
        assert!(all_absorbing.uniformize(1.02).is_err());
    }

    #[test]
    fn absorbing_state_has_zero_exit_rate() {
        let g = Generator::builder(2).rate(0, 1, 1.5).build().unwrap();
        assert_eq!(g.exit_rate(1), 0.0);
    }

    #[test]
    fn display_mentions_state_count() {
        let g = Generator::builder(2).rate(0, 1, 1.0).build().unwrap();
        assert!(g.to_string().contains("2 states"));
    }
}
