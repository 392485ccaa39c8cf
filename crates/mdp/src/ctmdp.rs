use std::fmt;
use std::sync::Arc;

use dpm_ctmc::Generator;
use dpm_linalg::DVector;

use crate::{MdpError, Policy};

/// One action available in a state of a [`Ctmdp`]: a label, the cost rate
/// `c_i^a` earned per unit time while the action is in force, and the
/// off-diagonal transition rates `s_{i,j}^a` it induces.
///
/// The label is a shared `Arc<str>`: a model whose actions repeat a few
/// labels (one per target mode, say) builds each once and hands out
/// clones, so adding an action allocates no label.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSpec {
    label: Arc<str>,
    cost_rate: f64,
    rates: Vec<(usize, f64)>,
}

impl ActionSpec {
    /// Human-readable action label (e.g. `"sleep"`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Cost rate `c_i^a` while this state-action pair is active.
    #[must_use]
    pub fn cost_rate(&self) -> f64 {
        self.cost_rate
    }

    /// Sparse off-diagonal transition rates as `(target, rate)` pairs.
    #[must_use]
    pub fn rates(&self) -> &[(usize, f64)] {
        &self.rates
    }

    /// Total exit rate under this action.
    #[must_use]
    pub fn exit_rate(&self) -> f64 {
        self.rates.iter().map(|&(_, r)| r).sum()
    }

    /// Transition rate to `target` (0 if absent).
    #[must_use]
    pub fn rate_to(&self, target: usize) -> f64 {
        self.rates
            .iter()
            .find(|&&(t, _)| t == target)
            .map_or(0.0, |&(_, r)| r)
    }
}

/// A continuous-time Markov decision process with finitely many states and
/// per-state finite action sets (paper Section II; Howard 1960, Miller
/// 1968).
///
/// Choosing one action per state — a stationary deterministic [`Policy`] —
/// induces an ordinary CTMC whose generator is available through
/// [`Ctmdp::generator_for`]. Theorems 2.2–2.3 of the paper justify
/// restricting attention to stationary policies.
///
/// # Examples
///
/// ```
/// use dpm_mdp::Ctmdp;
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// let mut b = Ctmdp::builder(2);
/// b.action(0, "go", 1.0, &[(1, 2.0)])?;
/// b.action(1, "back", 0.0, &[(0, 4.0)])?;
/// let mdp = b.build()?;
/// assert_eq!(mdp.n_states(), 2);
/// assert_eq!(mdp.actions(0)[0].label(), "go");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmdp {
    actions: Vec<Vec<ActionSpec>>,
}

impl Ctmdp {
    /// Starts building a process with `n_states` states.
    #[must_use]
    pub fn builder(n_states: usize) -> CtmdpBuilder {
        CtmdpBuilder::new(n_states)
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.actions.len()
    }

    /// Actions available in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn actions(&self, state: usize) -> &[ActionSpec] {
        &self.actions[state]
    }

    /// Total number of state-action pairs.
    #[must_use]
    pub fn n_state_actions(&self) -> usize {
        self.actions.iter().map(Vec::len).sum()
    }

    /// Precomputes every state–action transition row into one contiguous
    /// CSR table ([`crate::ActionCsr`]), the `O(nnz)` policy-improvement
    /// kernel. Build it once per solve and reuse it across improvement
    /// rounds; results are bit-identical to scanning [`Ctmdp::actions`]
    /// directly.
    #[must_use]
    pub fn sparse_actions(&self) -> crate::ActionCsr {
        crate::ActionCsr::from_ctmdp(self)
    }

    /// Validates that `policy` matches this process.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidPolicy`] on length or action-index
    /// mismatch.
    pub fn check_policy(&self, policy: &Policy) -> Result<(), MdpError> {
        if policy.len() != self.n_states() {
            return Err(MdpError::InvalidPolicy {
                reason: format!(
                    "policy has {} entries for {} states",
                    policy.len(),
                    self.n_states()
                ),
            });
        }
        for (state, &a) in policy.actions().iter().enumerate() {
            if a >= self.actions[state].len() {
                return Err(MdpError::InvalidPolicy {
                    reason: format!(
                        "action index {a} out of range ({} actions) at state {state}",
                        self.actions[state].len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Generator matrix `G^δ` of the CTMC induced by `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidPolicy`] if the policy does not match, or
    /// propagates generator validation failures.
    pub fn generator_for(&self, policy: &Policy) -> Result<Generator, MdpError> {
        self.check_policy(policy)?;
        let n = self.n_states();
        let mut b = Generator::builder(n);
        for (state, &a) in policy.actions().iter().enumerate() {
            for &(to, rate) in self.actions[state][a].rates() {
                if rate > 0.0 {
                    b.add_rate(state, to, rate);
                }
            }
        }
        b.build().map_err(MdpError::Chain)
    }

    /// The generator induced by `policy` in compressed sparse row storage,
    /// assembled row by row from the chosen actions' transition lists
    /// ([`dpm_ctmc::SparseGenerator::from_rows`]), without a triplet list
    /// or a dense matrix. Policy iteration calls this once per round.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidPolicy`] if the policy does not match,
    /// and [`MdpError::Chain`] if an exit rate overflows.
    pub fn sparse_generator_for(
        &self,
        policy: &Policy,
    ) -> Result<dpm_ctmc::SparseGenerator, MdpError> {
        self.check_policy(policy)?;
        let chosen = |state: usize| self.actions[state][policy.action(state)].rates();
        let capacity = (0..self.n_states()).map(|state| chosen(state).len()).sum();
        dpm_ctmc::SparseGenerator::from_rows(self.n_states(), capacity, |state, row| {
            row.extend_from_slice(chosen(state));
        })
        .map_err(MdpError::Chain)
    }

    /// Cost-rate vector `c^δ` under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidPolicy`] if the policy does not match.
    pub fn cost_rates_for(&self, policy: &Policy) -> Result<DVector, MdpError> {
        self.check_policy(policy)?;
        Ok(DVector::from_fn(self.n_states(), |i| {
            self.actions[i][policy.action(i)].cost_rate()
        }))
    }

    /// The "greedy" starting policy: in each state, the action with the
    /// smallest cost rate (ties to the first).
    #[must_use]
    pub fn min_cost_policy(&self) -> Policy {
        Policy::new(
            self.actions
                .iter()
                .map(|acts| {
                    acts.iter()
                        .enumerate()
                        .min_by(|(_, x), (_, y)| {
                            x.cost_rate()
                                .partial_cmp(&y.cost_rate())
                                // dpm-lint: allow(no_panic, reason = "cost rates are validated finite when the CTMDP is constructed")
                                .expect("cost rates are finite")
                        })
                        .map(|(i, _)| i)
                        // dpm-lint: allow(no_panic, reason = "CTMDP validation guarantees a non-empty action set per state")
                        .expect("every state has at least one action")
                })
                .collect(),
        )
    }

    /// Long-run average cost of `policy`: `π^δ · c^δ` with `π^δ` the
    /// stationary distribution of the induced chain.
    ///
    /// # Errors
    ///
    /// Propagates policy validation and stationary-solver failures (e.g.
    /// [`dpm_ctmc::CtmcError::Reducible`] for policies inducing reducible
    /// chains).
    pub fn average_cost(&self, policy: &Policy) -> Result<f64, MdpError> {
        let g = self.generator_for(policy)?;
        let (pi, _) = dpm_ctmc::stationary::Solver::new(dpm_ctmc::stationary::Method::Gth)
            .check_irreducible()
            .solve(&g)?;
        Ok(pi.dot(&self.cost_rates_for(policy)?))
    }

    /// Enumerates every deterministic stationary policy (cartesian product
    /// of action sets). Intended for small processes in tests and as a
    /// brute-force optimality oracle.
    ///
    /// # Panics
    ///
    /// Panics if the policy count exceeds `10^7` (guard against accidental
    /// combinatorial explosion).
    #[must_use]
    pub fn enumerate_policies(&self) -> Vec<Policy> {
        let counts: Vec<usize> = self.actions.iter().map(Vec::len).collect();
        let total: usize = counts.iter().product();
        assert!(
            total <= 10_000_000,
            "refusing to enumerate {total} policies"
        );
        let mut out = Vec::with_capacity(total);
        let mut current = vec![0usize; counts.len()];
        loop {
            out.push(Policy::new(current.clone()));
            // Odometer increment.
            let mut pos = 0;
            loop {
                if pos == counts.len() {
                    return out;
                }
                current[pos] += 1;
                if current[pos] < counts[pos] {
                    break;
                }
                current[pos] = 0;
                pos += 1;
            }
        }
    }
}

impl fmt::Display for Ctmdp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ctmdp: {} states, {} state-action pairs",
            self.n_states(),
            self.n_state_actions()
        )?;
        for (i, acts) in self.actions.iter().enumerate() {
            for a in acts {
                writeln!(
                    f,
                    "  state {i}: '{}' cost {} rates {:?}",
                    a.label(),
                    a.cost_rate(),
                    a.rates()
                )?;
            }
        }
        Ok(())
    }
}

/// Builder for [`Ctmdp`] processes.
#[derive(Debug, Clone)]
pub struct CtmdpBuilder {
    actions: Vec<Vec<ActionSpec>>,
}

impl CtmdpBuilder {
    /// Creates a builder for `n_states` states, each initially action-less.
    #[must_use]
    pub fn new(n_states: usize) -> Self {
        CtmdpBuilder {
            actions: vec![Vec::new(); n_states],
        }
    }

    /// Adds an action to `state` with the given label, cost rate, and
    /// off-diagonal transition rates. The label is anything that converts
    /// into an `Arc<str>` (`&str`, `String`, or a clone of a shared label).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] or [`MdpError::InvalidAction`]
    /// for self-loop targets, negative/non-finite rates, or non-finite
    /// costs.
    pub fn action(
        &mut self,
        state: usize,
        label: impl Into<Arc<str>>,
        cost_rate: f64,
        rates: &[(usize, f64)],
    ) -> Result<&mut Self, MdpError> {
        let n = self.actions.len();
        if state >= n {
            return Err(MdpError::StateOutOfRange { state, n_states: n });
        }
        if !cost_rate.is_finite() {
            return Err(MdpError::InvalidAction {
                state,
                reason: format!("cost rate {cost_rate} is not finite"),
            });
        }
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(rates.len());
        for &(to, rate) in rates {
            if to >= n {
                return Err(MdpError::StateOutOfRange {
                    state: to,
                    n_states: n,
                });
            }
            if to == state {
                return Err(MdpError::InvalidAction {
                    state,
                    reason: "self-loop rates are not allowed (diagonals are derived)".to_owned(),
                });
            }
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(MdpError::InvalidAction {
                    state,
                    reason: format!("rate {rate} to state {to} must be finite and >= 0"),
                });
            }
            match merged.iter_mut().find(|(t, _)| *t == to) {
                Some((_, r)) => *r += rate,
                None => merged.push((to, rate)),
            }
        }
        self.actions[state].push(ActionSpec {
            label: label.into(),
            cost_rate,
            rates: merged,
        });
        Ok(self)
    }

    /// Finalizes the process.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::NoActions`] if some state has no actions (or the
    /// process has no states at all).
    pub fn build(self) -> Result<Ctmdp, MdpError> {
        if self.actions.is_empty() {
            return Err(MdpError::NoActions { state: 0 });
        }
        for (state, acts) in self.actions.iter().enumerate() {
            if acts.is_empty() {
                return Err(MdpError::NoActions { state });
            }
        }
        Ok(Ctmdp {
            actions: self.actions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "fast", 1.0, &[(1, 2.0)]).unwrap();
        b.action(0, "slow", 3.0, &[(1, 0.5)]).unwrap();
        b.action(1, "repair", 10.0, &[(0, 1.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_collects_actions() {
        let m = toy();
        assert_eq!(m.n_states(), 2);
        assert_eq!(m.actions(0).len(), 2);
        assert_eq!(m.actions(1).len(), 1);
        assert_eq!(m.n_state_actions(), 3);
        assert_eq!(m.actions(0)[1].label(), "slow");
        assert_eq!(m.actions(0)[1].exit_rate(), 0.5);
        assert_eq!(m.actions(0)[0].rate_to(1), 2.0);
        assert_eq!(m.actions(0)[0].rate_to(0), 0.0);
    }

    #[test]
    fn builder_merges_duplicate_targets() {
        let mut b = Ctmdp::builder(3);
        b.action(0, "a", 0.0, &[(1, 1.0), (1, 2.0), (2, 0.5)])
            .unwrap();
        b.action(1, "b", 0.0, &[(0, 1.0)]).unwrap();
        b.action(2, "c", 0.0, &[(0, 1.0)]).unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.actions(0)[0].rate_to(1), 3.0);
        assert_eq!(m.actions(0)[0].rates().len(), 2);
    }

    #[test]
    fn builder_rejections() {
        let mut b = Ctmdp::builder(2);
        assert!(b.action(5, "x", 0.0, &[]).is_err());
        assert!(b.action(0, "x", f64::NAN, &[]).is_err());
        assert!(b.action(0, "x", 0.0, &[(0, 1.0)]).is_err());
        assert!(b.action(0, "x", 0.0, &[(1, -1.0)]).is_err());
        assert!(b.action(0, "x", 0.0, &[(7, 1.0)]).is_err());
    }

    #[test]
    fn build_requires_actions_everywhere() {
        let mut b = Ctmdp::builder(2);
        b.action(0, "only", 0.0, &[(1, 1.0)]).unwrap();
        assert!(matches!(b.build(), Err(MdpError::NoActions { state: 1 })));
        assert!(matches!(
            Ctmdp::builder(0).build(),
            Err(MdpError::NoActions { .. })
        ));
    }

    #[test]
    fn generator_and_costs_follow_policy() {
        let m = toy();
        let fast = Policy::new(vec![0, 0]);
        let slow = Policy::new(vec![1, 0]);
        let g_fast = m.generator_for(&fast).unwrap();
        let g_slow = m.generator_for(&slow).unwrap();
        assert_eq!(g_fast.rate(0, 1), 2.0);
        assert_eq!(g_slow.rate(0, 1), 0.5);
        assert_eq!(m.cost_rates_for(&fast).unwrap().as_slice(), &[1.0, 10.0]);
        assert_eq!(m.cost_rates_for(&slow).unwrap().as_slice(), &[3.0, 10.0]);
    }

    #[test]
    fn policy_validation() {
        let m = toy();
        assert!(m.check_policy(&Policy::new(vec![0])).is_err());
        assert!(m.check_policy(&Policy::new(vec![2, 0])).is_err());
        assert!(m.check_policy(&Policy::new(vec![1, 0])).is_ok());
    }

    #[test]
    fn average_cost_of_known_chain() {
        let m = toy();
        // fast: rates 2 and 1 → pi = (1/3, 2/3); cost = 1/3*1 + 2/3*10 = 7.
        let cost = m.average_cost(&Policy::new(vec![0, 0])).unwrap();
        assert!((cost - 7.0).abs() < 1e-10);
    }

    #[test]
    fn min_cost_policy_picks_cheapest() {
        let m = toy();
        assert_eq!(m.min_cost_policy().actions(), &[0, 0]);
    }

    #[test]
    fn enumerate_policies_covers_product() {
        let m = toy();
        let all = m.enumerate_policies();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&Policy::new(vec![0, 0])));
        assert!(all.contains(&Policy::new(vec![1, 0])));
    }

    #[test]
    fn display_lists_actions() {
        let text = toy().to_string();
        assert!(text.contains("fast"));
        assert!(text.contains("repair"));
    }
}
