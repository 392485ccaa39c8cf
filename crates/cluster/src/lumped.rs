//! Exchangeability lumping: the occupancy-space chain and its exact
//! refinement back to the joint distribution.
//!
//! Because every server shares the local generator and every ordered pair
//! shares the coupling terms, permuting server identities leaves the joint
//! chain's law unchanged. The occupancy map `m(x) = (how many servers of
//! x sit in each local state)` is therefore a strong lumping: the induced
//! process on occupancy vectors is itself a CTMC, with
//!
//! * local moves `s → t` at rate `c_s · q(s, t)` (any of the `c_s`
//!   servers in state `s` fires), and
//! * coupled moves `(a, b) → (a', b')` at rate
//!   `γ · D[a, a'] · R[b, b'] · pairs(a, b)` where `pairs` counts ordered
//!   server pairs: `c_a · c_b` for `a ≠ b` and `c_a · (c_a − 1)` for
//!   `a = b`.
//!
//! The lumped space has `C(n + K − 1, K)` states against the joint `n^K`
//! — 1 287 against 1 679 616 at `n = 6, K = 8` — and the joint
//! distribution is recovered exactly: symmetry makes `π` uniform on each
//! occupancy class, so `π_joint(x) = π_lumped(m(x)) / multiplicity(m(x))`.
//! The property tests pin that refinement against the matrix-free joint
//! solve at small `K`.

use std::collections::BTreeMap;

use dpm_ctmc::stationary::{Method, SolveStats, Solver};
use dpm_ctmc::SparseGenerator;
use dpm_linalg::DVector;

use crate::error::ClusterError;
use crate::model::ClusterModel;
use crate::multiset::MultisetIndex;

/// Builds the occupancy-space generator of the fleet.
///
/// # Errors
///
/// Propagates indexing and generator-validation failures.
pub fn lumped_generator(
    model: &ClusterModel,
) -> Result<(MultisetIndex, SparseGenerator), ClusterError> {
    let index = model.multiset_index()?;
    // BTreeMap keeps accumulation order deterministic across runs.
    let mut rates: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for from in 0..index.len() {
        let counts = index.unrank(from)?;
        // Local moves: one of the c_s servers in state s jumps s -> t.
        for (s, &c_s) in counts.iter().enumerate() {
            if c_s == 0 {
                continue;
            }
            for (t, q) in model.local().csr().row(s) {
                if t == s || q <= 0.0 {
                    continue;
                }
                let mut next = counts.clone();
                next[s] -= 1;
                next[t] += 1;
                let to = index.rank(&next)?;
                *rates.entry((from, to)).or_insert(0.0) += c_s as f64 * q;
            }
        }
        // Coupled moves: an ordered (donor, receiver) pair of distinct
        // servers fires one interaction term.
        for term in model.couplings() {
            for (a, a2, dv) in term.donor().iter() {
                for (b, b2, rv) in term.receiver().iter() {
                    let pairs = if a == b {
                        counts[a] * counts[a].saturating_sub(1)
                    } else {
                        counts[a] * counts[b]
                    };
                    if pairs == 0 {
                        continue;
                    }
                    let mut next = counts.clone();
                    next[a] -= 1;
                    next[b] -= 1;
                    next[a2] += 1;
                    next[b2] += 1;
                    if next == counts {
                        // The joint chain moves but the occupancy does
                        // not (e.g. two servers swap states); in the
                        // lumped chain this is a self-loop with no effect
                        // on the stationary law.
                        continue;
                    }
                    let to = index.rank(&next)?;
                    *rates.entry((from, to)).or_insert(0.0) += term.rate() * dv * rv * pairs as f64;
                }
            }
        }
    }
    let transitions: Vec<(usize, usize, f64)> = rates
        .into_iter()
        .map(|((from, to), rate)| (from, to, rate))
        .collect();
    let generator = SparseGenerator::from_transitions(index.len(), &transitions)?;
    Ok((index, generator))
}

/// A solved occupancy-space chain.
#[derive(Debug, Clone)]
pub struct LumpedSolution {
    index: MultisetIndex,
    pi: DVector,
    stats: SolveStats,
    generator_bytes: usize,
}

impl LumpedSolution {
    /// The occupancy index mapping ranks to count vectors.
    #[must_use]
    pub fn index(&self) -> &MultisetIndex {
        &self.index
    }

    /// Stationary distribution over occupancy ranks.
    #[must_use]
    pub fn pi(&self) -> &DVector {
        &self.pi
    }

    /// Stationary-solver statistics (method, iterations, escalations).
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Bytes of the lumped generator's CSR storage — the only matrix the
    /// lumped pipeline ever materializes.
    #[must_use]
    pub fn generator_bytes(&self) -> usize {
        self.generator_bytes
    }

    /// Exact joint probability of one `n^K` tuple: the occupancy class
    /// mass split uniformly over its `multiplicity` members.
    ///
    /// # Errors
    ///
    /// Propagates index-decoding failures for an out-of-range tuple.
    pub fn joint_probability(&self, joint: usize) -> Result<f64, ClusterError> {
        let counts = self.index.counts_of_joint(joint)?;
        let rank = self.index.rank(&counts)?;
        Ok(self.pi[rank] / self.index.multiplicity(&counts)?)
    }

    /// Materializes the full refined joint distribution. Only sensible at
    /// small `K` — the vector has `n^K` entries.
    ///
    /// # Errors
    ///
    /// [`ClusterError::StateSpace`] when `n^K` overflows `usize`.
    pub fn refine_joint(&self) -> Result<DVector, ClusterError> {
        let exp = u32::try_from(self.index.k()).map_err(|_| ClusterError::StateSpace {
            reason: format!("fleet size {} exceeds u32", self.index.k()),
        })?;
        let dim =
            self.index
                .n_local()
                .checked_pow(exp)
                .ok_or_else(|| ClusterError::StateSpace {
                    reason: format!(
                        "joint space {}^{} overflows usize",
                        self.index.n_local(),
                        self.index.k()
                    ),
                })?;
        let mut pi = DVector::zeros(dim);
        for x in 0..dim {
            pi[x] = self.joint_probability(x)?;
        }
        Ok(pi)
    }

    /// Expected number of servers in each local state under stationarity.
    #[must_use]
    pub fn mean_occupancy(&self) -> Vec<f64> {
        let n = self.index.n_local();
        let mut mean = vec![0.0f64; n];
        for rank in 0..self.index.len() {
            // Ranks below len always unrank.
            if let Ok(counts) = self.index.unrank(rank) {
                for (s, &c) in counts.iter().enumerate() {
                    mean[s] += self.pi[rank] * c as f64;
                }
            }
        }
        mean
    }
}

/// Builds and solves the occupancy-space chain through the stock
/// [`Solver`] builder (Krylov first with the full fallback ladder, on the
/// closed class of a reducible fleet).
///
/// # Errors
///
/// Propagates generator construction and solver failures.
pub fn solve_lumped(model: &ClusterModel) -> Result<LumpedSolution, ClusterError> {
    let (index, generator) = lumped_generator(model)?;
    let word = std::mem::size_of::<f64>();
    let generator_bytes = generator.nnz() * 2 * word + (generator.n_states() + 1) * word;
    let (pi, stats) = Solver::new(Method::BiCgStab)
        .with_default_fallback()
        .solve(&generator)?;
    Ok(LumpedSolution {
        index,
        pi,
        stats,
        generator_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_linalg::CsrMatrix;

    use crate::joint::{solve_joint_matrix_free, JointOptions};
    use crate::model::CouplingTerm;

    fn mm1k(n: usize, lambda: f64, mu: f64) -> SparseGenerator {
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, lambda));
            transitions.push((i + 1, i, mu));
        }
        SparseGenerator::from_transitions(n, &transitions).unwrap()
    }

    fn coupled_fleet(k: usize) -> ClusterModel {
        let donor = CsrMatrix::from_triplets(3, 3, &[(2, 1, 1.0), (1, 0, 0.5)]).unwrap();
        let receiver = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
        ClusterModel::new(mm1k(3, 1.0, 2.0), k)
            .unwrap()
            .with_coupling(CouplingTerm::new(0.4, donor, receiver).unwrap())
            .unwrap()
    }

    #[test]
    fn lumped_state_count_is_stars_and_bars() {
        let (index, generator) = lumped_generator(&coupled_fleet(4)).unwrap();
        assert_eq!(index.len(), 15); // C(6, 4)
        assert_eq!(generator.n_states(), 15);
    }

    #[test]
    fn refinement_matches_joint_solve_independent() {
        let model = ClusterModel::new(mm1k(3, 1.0, 2.0), 3).unwrap();
        let lumped = solve_lumped(&model).unwrap();
        let joint = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
        let refined = lumped.refine_joint().unwrap();
        for x in 0..refined.len() {
            assert!(
                (refined[x] - joint.pi()[x]).abs() < 1e-9,
                "tuple {x}: {} vs {}",
                refined[x],
                joint.pi()[x]
            );
        }
    }

    #[test]
    fn refinement_matches_joint_solve_coupled() {
        let model = coupled_fleet(3);
        let lumped = solve_lumped(&model).unwrap();
        let joint = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
        let refined = lumped.refine_joint().unwrap();
        for x in 0..refined.len() {
            assert!(
                (refined[x] - joint.pi()[x]).abs() < 1e-9,
                "tuple {x}: {} vs {}",
                refined[x],
                joint.pi()[x]
            );
        }
    }

    #[test]
    fn large_fleet_solves_in_lumped_space_only() {
        // 6 local states, 8 servers: joint space 1 679 616 > 10^6, lumped
        // space C(13, 8) = 1 287.
        let model = coupled_fleet_six(8);
        let lumped = solve_lumped(&model).unwrap();
        assert_eq!(lumped.index().len(), 1287);
        assert!(model.joint_states().unwrap() > 1_000_000);
        let mass: f64 = (0..lumped.pi().len()).map(|i| lumped.pi()[i]).sum();
        assert!((mass - 1.0).abs() < 1e-9);
        // Mean occupancies sum to the fleet size.
        let total: f64 = lumped.mean_occupancy().iter().sum();
        assert!((total - 8.0).abs() < 1e-6);
    }

    fn coupled_fleet_six(k: usize) -> ClusterModel {
        let donor = CsrMatrix::from_triplets(6, 6, &[(5, 4, 1.0), (4, 3, 0.5)]).unwrap();
        let receiver = CsrMatrix::from_triplets(6, 6, &[(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
        ClusterModel::new(mm1k(6, 2.0, 3.0), k)
            .unwrap()
            .with_coupling(CouplingTerm::new(0.25, donor, receiver).unwrap())
            .unwrap()
    }
}
