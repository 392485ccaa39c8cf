use std::fmt;

use dpm_linalg::{DMatrix, DVector};

use crate::CtmcError;

/// Validation slack for stochastic rows.
const ROW_SUM_TOL: f64 = 1e-9;

/// A discrete-time Markov chain with a validated (row-)stochastic transition
/// matrix.
///
/// Produced by [`Generator::uniformize`](crate::Generator::uniformize)
/// (transient analysis steps it) and by
/// [`hitting::embedded_chain`](crate::hitting::embedded_chain).
///
/// # Examples
///
/// ```
/// use dpm_ctmc::Dtmc;
/// use dpm_linalg::DMatrix;
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// let p = Dtmc::from_matrix(DMatrix::from_rows(&[
///     &[0.5, 0.5],
///     &[0.25, 0.75],
/// ]).map_err(dpm_ctmc::CtmcError::from)?)?;
/// let pi = p.stationary_gth()?;
/// assert!((pi[0] - 1.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    matrix: DMatrix,
}

impl Dtmc {
    /// Validates `matrix` as a row-stochastic transition matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::InvalidStochastic`] if the matrix is not square,
    /// has entries outside `[0, 1]`, or has a row not summing to one.
    pub fn from_matrix(matrix: DMatrix) -> Result<Self, CtmcError> {
        if !matrix.is_square() || matrix.nrows() == 0 {
            return Err(CtmcError::InvalidStochastic {
                reason: format!(
                    "transition matrix must be square and non-empty, got {}x{}",
                    matrix.nrows(),
                    matrix.ncols()
                ),
            });
        }
        for i in 0..matrix.nrows() {
            let row = matrix.row(i);
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > ROW_SUM_TOL {
                return Err(CtmcError::InvalidStochastic {
                    reason: format!("row {i} sums to {sum}, expected 1"),
                });
            }
            for (j, &p) in row.iter().enumerate() {
                if !(0.0..=1.0 + ROW_SUM_TOL).contains(&p) {
                    return Err(CtmcError::InvalidStochastic {
                        reason: format!("probability {p} at ({i}, {j}) outside [0, 1]"),
                    });
                }
            }
        }
        Ok(Dtmc { matrix })
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.matrix.nrows()
    }

    /// One-step transition probability from `i` to `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn probability(&self, i: usize, j: usize) -> f64 {
        self.matrix[(i, j)]
    }

    /// Borrows the transition matrix.
    #[must_use]
    pub fn matrix(&self) -> &DMatrix {
        &self.matrix
    }

    /// Advances a distribution one step: `π' = π P`.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != self.n_states()`.
    #[must_use]
    pub fn step(&self, pi: &DVector) -> DVector {
        self.matrix.vec_mul(pi)
    }

    /// Stationary distribution by Grassmann–Taksar–Heyman state reduction,
    /// which is subtraction-free and therefore numerically stable even for
    /// stiff chains. The off-diagonal probabilities go to the same
    /// elimination as [`crate::stationary::Method::Gth`], which never reads
    /// the diagonal: `πP = π` is `π(P − I) = 0`.
    ///
    /// Requires the chain to be irreducible — callers should check first
    /// (see [`crate::graph::is_irreducible`]). On a reducible chain the
    /// elimination degenerates or returns the distribution of one closed
    /// class, depending on the elimination order.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::Numerical`] if a pivot degenerates to zero
    /// (reducible chains, or fill products underflowing).
    pub fn stationary_gth(&self) -> Result<DVector, CtmcError> {
        let n = self.n_states();
        let transitions = (0..n).flat_map(move |i| {
            self.matrix
                .row(i)
                .iter()
                .enumerate()
                .filter(move |&(j, &p)| j != i && p > 0.0)
                .map(move |(j, &p)| (i, j, p))
        });
        crate::stationary::gth(n, transitions)
    }
}

impl fmt::Display for Dtmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dtmc ({} states)\n{}", self.n_states(), self.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Dtmc {
        Dtmc::from_matrix(DMatrix::from_rows(&[&[0.5, 0.5], &[0.25, 0.75]]).unwrap()).unwrap()
    }

    #[test]
    fn validates_row_sums() {
        let m = DMatrix::from_rows(&[&[0.5, 0.4], &[0.5, 0.5]]).unwrap();
        assert!(matches!(
            Dtmc::from_matrix(m),
            Err(CtmcError::InvalidStochastic { .. })
        ));
    }

    #[test]
    fn validates_entry_range() {
        let m = DMatrix::from_rows(&[&[1.5, -0.5], &[0.5, 0.5]]).unwrap();
        assert!(Dtmc::from_matrix(m).is_err());
    }

    #[test]
    fn step_advances_distribution() {
        let p = two_state();
        let pi = DVector::from_vec(vec![1.0, 0.0]);
        let next = p.step(&pi);
        assert_eq!(next.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn gth_matches_hand_computed_stationary() {
        // pi P = pi with P as in two_state(): pi = (1/3, 2/3).
        let pi = two_state().stationary_gth().unwrap();
        assert!((pi[0] - 1.0 / 3.0).abs() < 1e-14);
        assert!((pi[1] - 2.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn gth_handles_three_state_ring() {
        let p = Dtmc::from_matrix(
            DMatrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]).unwrap(),
        )
        .unwrap();
        let pi = p.stationary_gth().unwrap();
        for i in 0..3 {
            assert!((pi[i] - 1.0 / 3.0).abs() < 1e-14);
        }
    }
}
