//! Sparse (CSR-backed) generator matrices.
//!
//! A SYS-level generator for a power-managed system has a handful of
//! transitions per state — an arrival, a departure, and the mode switches —
//! so its nonzero count grows linearly in the state count while the dense
//! representation grows quadratically. [`SparseGenerator`] keeps the same
//! invariants as the dense [`Generator`] (off-diagonal rates non-negative,
//! rows summing to zero) over a [`CsrMatrix`], and the solvers in
//! [`crate::stationary`] operate on it without ever materializing a dense
//! matrix.

use dpm_linalg::CsrMatrix;

use crate::{CtmcError, Generator};

/// A validated transition-rate matrix in compressed sparse row storage.
///
/// Construction enforces the generator-matrix conditions (Eqns. 2.1–2.4 of
/// the paper): off-diagonal entries are non-negative and finite, and each
/// diagonal entry is the negated sum of its row's off-diagonal entries.
///
/// # Examples
///
/// ```
/// use dpm_ctmc::SparseGenerator;
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// let g = SparseGenerator::from_transitions(2, &[(0, 1, 1.0), (1, 0, 3.0)])?;
/// assert_eq!(g.rate(0, 1), 1.0);
/// assert_eq!(g.exit_rate(1), 3.0);
/// assert_eq!(g.nnz(), 4); // two rates + two diagonal entries
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGenerator {
    /// Full generator including diagonal entries.
    csr: CsrMatrix,
    /// Exit rates, `exit[i] = -G[i][i]`.
    exit: Vec<f64>,
}

impl SparseGenerator {
    /// Builds a sparse generator from off-diagonal `(from, to, rate)`
    /// transitions; diagonal entries are derived. Duplicate transitions
    /// accumulate, matching [`GeneratorBuilder::add_rate`] semantics.
    ///
    /// [`GeneratorBuilder::add_rate`]: crate::GeneratorBuilder::add_rate
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::StateOutOfRange`] for an index `>= n_states` and
    /// [`CtmcError::InvalidGenerator`] for a self-loop, a negative rate, or
    /// a non-finite rate.
    pub fn from_transitions(
        n_states: usize,
        transitions: &[(usize, usize, f64)],
    ) -> Result<SparseGenerator, CtmcError> {
        for &(from, to, rate) in transitions {
            check_transition(n_states, from, to, rate)?;
        }
        // Stable counting sort by source state: each row keeps its
        // transitions in input order, which is the order its exit rate
        // sums them in.
        let mut starts = vec![0usize; n_states + 1];
        for &(from, _, _) in transitions {
            starts[from + 1] += 1;
        }
        for i in 0..n_states {
            starts[i + 1] += starts[i];
        }
        let mut rows = vec![(0usize, 0.0f64); transitions.len()];
        let mut cursor = starts.clone();
        for &(from, to, rate) in transitions {
            rows[cursor[from]] = (to, rate);
            cursor[from] += 1;
        }
        SparseGenerator::from_rows(n_states, transitions.len(), |i, row| {
            row.extend_from_slice(&rows[starts[i]..starts[i + 1]]);
        })
    }

    /// Builds a sparse generator row by row: `fill(i, row)` appends state
    /// `i`'s off-diagonal `(to, rate)` transitions to the empty `row`.
    /// `capacity` bounds the transitions of all rows together; the CSR
    /// arrays are reserved once for them and the diagonals.
    ///
    /// Each exit rate sums its row's positive rates in the order given,
    /// and [`CsrMatrix::from_row_fn`] drops the zero rates, sorts the row
    /// with its diagonal `-exit` appended and merges repeated targets. One
    /// scratch row is reused and no triplet list is gathered, so nothing
    /// is allocated per state; [`SparseGenerator::from_transitions`] is
    /// this on its transitions sorted by row.
    ///
    /// # Errors
    ///
    /// The errors of [`SparseGenerator::from_transitions`] for the first
    /// invalid transition in row order, and [`CtmcError::Numerical`] for
    /// an exit rate that overflows.
    pub fn from_rows(
        n_states: usize,
        capacity: usize,
        mut fill: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Result<SparseGenerator, CtmcError> {
        let mut exit = vec![0.0f64; n_states];
        let mut invalid = None;
        let csr = CsrMatrix::from_row_fn(n_states, n_states, capacity + n_states, |from, row| {
            if invalid.is_some() {
                return;
            }
            fill(from, row);
            for &(to, rate) in row.iter() {
                if let Err(e) = check_transition(n_states, from, to, rate) {
                    invalid = Some(e);
                    return;
                }
                if rate > 0.0 {
                    exit[from] += rate;
                }
            }
            if exit[from] > 0.0 {
                row.push((from, -exit[from]));
            }
        });
        // Every transition is checked before the matrix's own entry check
        // counts, so a bad transition outranks a non-finite diagonal.
        if let Some(e) = invalid {
            return Err(e);
        }
        let csr = csr.map_err(CtmcError::Numerical)?;
        Ok(SparseGenerator { csr, exit })
    }

    /// Converts a dense generator, keeping only its nonzero entries.
    #[must_use]
    pub fn from_generator(generator: &Generator) -> SparseGenerator {
        let csr = CsrMatrix::from_dense(generator.matrix());
        let exit = (0..generator.n_states())
            .map(|i| generator.exit_rate(i))
            .collect();
        SparseGenerator { csr, exit }
    }

    /// Materializes the dense equivalent. `O(n²)` memory — intended for
    /// tests and small chains; defeats the point of sparsity at scale.
    ///
    /// # Errors
    ///
    /// Propagates dense generator validation, which cannot fail for a
    /// `SparseGenerator` built through the checked constructors.
    pub fn to_generator(&self) -> Result<Generator, CtmcError> {
        Generator::from_matrix(self.csr.to_dense())
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.csr.nrows()
    }

    /// Number of stored entries (off-diagonal transitions plus diagonals).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// The transition rate from `i` to `j` (`i != j`), or the diagonal entry
    /// if `i == j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        self.csr.get(i, j)
    }

    /// Total exit rate of state `i`, `-G[i][i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn exit_rate(&self, i: usize) -> f64 {
        self.exit[i]
    }

    /// The largest exit rate, used as the uniformization constant base.
    #[must_use]
    pub fn max_exit_rate(&self) -> f64 {
        self.exit.iter().copied().fold(0.0, f64::max)
    }

    /// The underlying CSR matrix (diagonal included).
    #[must_use]
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// Iterates over the off-diagonal transitions `(from, to, rate)` with
    /// `rate > 0`.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.csr.iter().filter(|&(i, j, rate)| i != j && rate > 0.0)
    }

    /// The generator of the closed class `members` (ascending): no rate
    /// leaves a closed class, so its rows are copied entry for entry.
    pub(crate) fn closed_class(&self, members: &[usize]) -> Result<SparseGenerator, CtmcError> {
        let mut local = vec![usize::MAX; self.n_states()];
        for (l, &state) in members.iter().enumerate() {
            local[state] = l;
        }
        let mut triplets = Vec::new();
        for (row, &i) in members.iter().enumerate() {
            triplets.extend(self.csr.row(i).map(|(j, v)| (row, local[j], v)));
        }
        let k = members.len();
        let csr = CsrMatrix::from_triplets(k, k, &triplets).map_err(CtmcError::Numerical)?;
        let exit = members.iter().map(|&i| self.exit[i]).collect();
        Ok(SparseGenerator { csr, exit })
    }

    /// Maximum absolute row sum — zero (to tolerance) for a valid generator.
    #[must_use]
    pub fn max_row_sum_error(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.n_states() {
            let sum: f64 = self.csr.row(i).map(|(_, v)| v).sum();
            max = max.max(sum.abs());
        }
        max
    }

    /// Internal consistency check used by tests.
    #[cfg(test)]
    pub(crate) fn is_consistent(&self) -> bool {
        self.exit.len() == self.n_states()
            && self.csr.is_square()
            && self.max_row_sum_error()
                <= crate::generator::ROW_SUM_TOL * (1.0 + self.max_exit_rate())
    }
}

/// The construction check on one off-diagonal transition.
fn check_transition(n_states: usize, from: usize, to: usize, rate: f64) -> Result<(), CtmcError> {
    if from >= n_states || to >= n_states {
        return Err(CtmcError::StateOutOfRange {
            state: from.max(to),
            n_states,
        });
    }
    if from == to {
        return Err(CtmcError::InvalidGenerator {
            reason: format!("self-loop rate at state {from}; diagonals are derived"),
        });
    }
    if !rate.is_finite() || rate < 0.0 {
        return Err(CtmcError::InvalidGenerator {
            reason: format!(
                "rate {rate} on transition {from} -> {to} must be finite and non-negative"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_state() -> SparseGenerator {
        SparseGenerator::from_transitions(3, &[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 4.0), (1, 0, 0.5)])
            .unwrap()
    }

    #[test]
    fn rates_and_exits_match_construction() {
        let g = three_state();
        assert_eq!(g.rate(0, 1), 2.0);
        assert_eq!(g.rate(1, 0), 0.5);
        assert_eq!(g.rate(0, 2), 0.0);
        assert_eq!(g.exit_rate(1), 1.5);
        assert_eq!(g.rate(1, 1), -1.5);
        assert_eq!(g.max_exit_rate(), 4.0);
        assert!(g.is_consistent());
    }

    #[test]
    fn duplicate_transitions_accumulate() {
        let g = SparseGenerator::from_transitions(2, &[(0, 1, 1.0), (0, 1, 2.0)]).unwrap();
        assert_eq!(g.rate(0, 1), 3.0);
        assert_eq!(g.exit_rate(0), 3.0);
    }

    #[test]
    fn rejects_invalid_transitions() {
        assert!(matches!(
            SparseGenerator::from_transitions(2, &[(0, 2, 1.0)]),
            Err(CtmcError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            SparseGenerator::from_transitions(2, &[(1, 1, 1.0)]),
            Err(CtmcError::InvalidGenerator { .. })
        ));
        assert!(matches!(
            SparseGenerator::from_transitions(2, &[(0, 1, -1.0)]),
            Err(CtmcError::InvalidGenerator { .. })
        ));
        assert!(matches!(
            SparseGenerator::from_transitions(2, &[(0, 1, f64::NAN)]),
            Err(CtmcError::InvalidGenerator { .. })
        ));
    }

    #[test]
    fn dense_round_trip_preserves_rates() {
        let g = three_state();
        let dense = g.to_generator().unwrap();
        let back = SparseGenerator::from_generator(&dense);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g.rate(i, j) - back.rate(i, j)).abs() < 1e-15);
            }
            assert!((g.exit_rate(i) - dense.exit_rate(i)).abs() < 1e-15);
        }
    }

    #[test]
    fn transitions_iterate_off_diagonal_only() {
        let g = three_state();
        let mut ts: Vec<_> = g.transitions().collect();
        ts.sort_by_key(|&(i, j, _)| (i, j));
        assert_eq!(ts, vec![(0, 1, 2.0), (1, 0, 0.5), (1, 2, 1.0), (2, 0, 4.0)]);
    }

    #[test]
    fn closed_class_copies_its_rows() {
        // 0 -> {1 <-> 2}.
        let g =
            SparseGenerator::from_transitions(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 1, 3.0)]).unwrap();
        let class = g.closed_class(&[1, 2]).unwrap();
        assert_eq!(
            class,
            SparseGenerator::from_transitions(2, &[(0, 1, 2.0), (1, 0, 3.0)]).unwrap()
        );
    }

    #[test]
    fn zero_rate_transitions_are_dropped() {
        let g =
            SparseGenerator::from_transitions(3, &[(0, 1, 1.0), (1, 2, 0.0), (1, 0, 1.0)]).unwrap();
        // (1, 2) contributes nothing; state 2 is absorbing with no row.
        assert_eq!(g.exit_rate(2), 0.0);
        assert_eq!(g.nnz(), 4);
    }

    #[test]
    fn from_rows_matches_from_transitions() {
        // A repeated target, a zero rate and an empty row.
        let rows: [&[(usize, f64)]; 3] =
            [&[(2, 0.5), (1, 1.0), (2, 0.25)], &[(0, 0.0)], &[(0, 4.0)]];
        let transitions: Vec<_> = rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&(j, rate)| (i, j, rate)))
            .collect();
        let by_rows =
            SparseGenerator::from_rows(3, 4, |i, row| row.extend_from_slice(rows[i])).unwrap();
        assert_eq!(
            by_rows,
            SparseGenerator::from_transitions(3, &transitions).unwrap()
        );
        assert_eq!(
            by_rows.exit_rate(0).to_bits(),
            ((0.5 + 1.0) + 0.25f64).to_bits()
        );
    }

    #[test]
    fn from_rows_errors_match_from_transitions() {
        let big = f64::MAX / 1.5;
        let cases: [[&[(usize, f64)]; 2]; 4] = [
            // An exit rate overflows.
            [&[(1, big)], &[(0, big), (0, big)]],
            // A bad transition outranks an earlier overflowing row.
            [&[(1, big), (1, big)], &[(0, -1.0)]],
            [&[(0, 1.0)], &[]],
            [&[(7, 1.0)], &[(0, f64::NAN)]],
        ];
        for rows in cases {
            let transitions: Vec<_> = rows
                .iter()
                .enumerate()
                .flat_map(|(i, row)| row.iter().map(move |&(j, rate)| (i, j, rate)))
                .collect();
            let by_rows = SparseGenerator::from_rows(2, 0, |i, row| row.extend_from_slice(rows[i]));
            let reference = SparseGenerator::from_transitions(2, &transitions);
            assert_eq!(
                by_rows.unwrap_err().to_string(),
                reference.unwrap_err().to_string(),
                "{rows:?}"
            );
        }
    }

    #[test]
    fn empty_generator_is_valid() {
        let g = SparseGenerator::from_transitions(2, &[]).unwrap();
        assert_eq!(g.nnz(), 0);
        assert!(g.is_consistent());
    }
}
