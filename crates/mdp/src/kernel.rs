//! Flattened per-action CSR kernel for policy improvement.
//!
//! The improvement step of policy iteration ([`crate::average::improve`])
//! evaluates the gain drift `Σ_j s_{i,j}^a g_j` and the bias test quantity
//! `c_i^a + Σ_j s_{i,j}^a v_j` for *every* state–action pair each round.
//! Walking the builder's nested `Vec<Vec<ActionSpec>>` for that means two
//! pointer indirections and a heap hop per action; a dense per-action scan
//! would be `O(|S|·|A|·|S|)`. [`ActionCsr`] flattens all state–action rows
//! into one contiguous CSR layout — one slice of `(column, rate)` pairs and
//! one cost per row, with two index arrays mapping states to their row
//! ranges — so a full improvement sweep is a single linear pass over
//! `O(nnz)` memory. Rates are stored in the builder's order, so every sum
//! accumulates in a fixed order and the sweep is deterministic.

use dpm_linalg::DVector;

use crate::Ctmdp;

/// Precomputed per-action CSR rows of a [`Ctmdp`].
///
/// Built once per solve via [`Ctmdp::sparse_actions`] and reused across all
/// improvement rounds; the construction is `O(nnz)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionCsr {
    n_states: usize,
    /// `sa_ptr[s]..sa_ptr[s + 1]` is state `s`'s range of state–action
    /// rows; length `n_states + 1`.
    sa_ptr: Vec<usize>,
    /// Cost rate `c_i^a` per state–action row.
    cost: Vec<f64>,
    /// `row_ptr[r]..row_ptr[r + 1]` is row `r`'s slice of `col_idx` /
    /// `rates`; length `sa_ptr[n_states] + 1`.
    row_ptr: Vec<usize>,
    /// Target states, in the order the action declared them (a repeated
    /// target merged into its first position); not sorted.
    col_idx: Vec<usize>,
    /// Transition rates `s_{i,j}^a`, aligned with `col_idx`.
    rates: Vec<f64>,
}

impl ActionCsr {
    pub(crate) fn from_ctmdp(mdp: &Ctmdp) -> ActionCsr {
        let n_states = mdp.n_states();
        let mut sa_ptr = Vec::with_capacity(n_states + 1);
        let mut cost = Vec::with_capacity(mdp.n_state_actions());
        let mut row_ptr = Vec::with_capacity(mdp.n_state_actions() + 1);
        let mut col_idx = Vec::new();
        let mut rates = Vec::new();
        sa_ptr.push(0);
        row_ptr.push(0);
        for state in 0..n_states {
            for spec in mdp.actions(state) {
                cost.push(spec.cost_rate());
                for &(to, rate) in spec.rates() {
                    col_idx.push(to);
                    rates.push(rate);
                }
                row_ptr.push(col_idx.len());
            }
            sa_ptr.push(cost.len());
        }
        ActionCsr {
            n_states,
            sa_ptr,
            cost,
            row_ptr,
            col_idx,
            rates,
        }
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions available in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn n_actions(&self, state: usize) -> usize {
        self.sa_ptr[state + 1] - self.sa_ptr[state]
    }

    /// Total number of stored transition entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.rates.len()
    }

    /// Cost rate `c_i^a`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    #[must_use]
    pub fn cost_rate(&self, state: usize, action: usize) -> f64 {
        self.cost[self.sa_ptr[state] + action]
    }

    /// The `(target, rate)` transitions of one state–action row.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    pub fn transitions(
        &self,
        state: usize,
        action: usize,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let row = self.sa_ptr[state] + action;
        let range = self.row_ptr[row]..self.row_ptr[row + 1];
        self.col_idx[range.clone()]
            .iter()
            .zip(&self.rates[range])
            .map(|(&c, &r)| (c, r))
    }

    /// Gain drift `Σ_j s_{i,j}^a (g_j − g_i)` of the first improvement
    /// stage, accumulated from zero.
    ///
    /// # Panics
    ///
    /// Panics if `state`/`action` is out of range or `gains` is too short.
    #[must_use]
    pub fn drift(&self, state: usize, action: usize, gains: &DVector) -> f64 {
        let row = self.sa_ptr[state] + action;
        let here = gains[state];
        let mut d = 0.0;
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            d += self.rates[k] * (gains[self.col_idx[k]] - here);
        }
        d
    }

    /// Bias test quantity `c_i^a + Σ_j s_{i,j}^a (v_j − v_i)` of the second
    /// improvement stage: the sum is accumulated from zero first and added
    /// to the cost at the end.
    ///
    /// # Panics
    ///
    /// Panics if `state`/`action` is out of range or `bias` is too short.
    #[must_use]
    pub fn bias_test(&self, state: usize, action: usize, bias: &DVector) -> f64 {
        let row = self.sa_ptr[state] + action;
        let here = bias[state];
        let mut sum = 0.0;
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            sum += self.rates[k] * (bias[self.col_idx[k]] - here);
        }
        self.cost[row] + sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ctmdp {
        let mut b = Ctmdp::builder(3);
        b.action(0, "a", 1.0, &[(1, 2.0), (2, 0.5)]).unwrap();
        b.action(0, "b", 3.0, &[(2, 1.5)]).unwrap();
        b.action(1, "a", 0.0, &[(0, 1.0)]).unwrap();
        b.action(2, "a", 7.0, &[(0, 0.25), (1, 4.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn layout_round_trips_the_builder() {
        let mdp = sample();
        let csr = mdp.sparse_actions();
        assert_eq!(csr.n_states(), 3);
        assert_eq!(csr.n_actions(0), 2);
        assert_eq!(csr.n_actions(1), 1);
        assert_eq!(csr.nnz(), 6);
        assert_eq!(csr.cost_rate(0, 1), 3.0);
        assert_eq!(csr.cost_rate(2, 0), 7.0);
        let row: Vec<(usize, f64)> = csr.transitions(2, 0).collect();
        assert_eq!(row, vec![(0, 0.25), (1, 4.0)]);
    }

    #[test]
    fn bias_test_matches_manual_computation() {
        let mdp = sample();
        let csr = mdp.sparse_actions();
        let bias = DVector::from_vec(vec![0.0, 2.0, -1.0]);
        // State 0, action "a": 1.0 + 2.0·(2−0) + 0.5·(−1−0) = 4.5.
        assert_eq!(csr.bias_test(0, 0, &bias), 4.5);
        // drift with these as gains: 2.0·2 + 0.5·(−1) = 3.5.
        assert_eq!(csr.drift(0, 0, &bias), 3.5);
    }

    #[test]
    fn empty_rate_rows_are_representable() {
        let mut b = Ctmdp::builder(1);
        b.action(0, "idle", 2.5, &[]).unwrap();
        let csr = b.build().unwrap().sparse_actions();
        assert_eq!(csr.n_actions(0), 1);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.bias_test(0, 0, &DVector::zeros(1)), 2.5);
    }
}
