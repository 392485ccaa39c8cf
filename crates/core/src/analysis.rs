//! Analytic ("functional value") evaluation of power-management policies.
//!
//! Section V of the paper validates its stochastic model by comparing the
//! *functional values* of power and queue length — computed from the state
//! probabilities and state costs — against simulation. This module computes
//! those functional values: given a policy, the induced CTMC's long-run
//! averages of power, queue occupancy, request loss and mode-switch
//! frequency.

use std::fmt;

use dpm_ctmc::{stationary, Generator};
use dpm_linalg::DVector;

use crate::{DpmError, PmPolicy, PmSystem};

/// Long-run performance metrics of a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyMetrics {
    power: f64,
    queue_length: f64,
    loss_rate: f64,
    switch_frequency: f64,
    lambda: f64,
}

impl PolicyMetrics {
    /// Average power dissipation in watts, including switching energy
    /// (`C_pow` averaged over the stationary behavior).
    #[must_use]
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Average number of requests present (`C_sq` averaged) — the paper's
    /// performance metric.
    #[must_use]
    pub fn queue_length(&self) -> f64 {
        self.queue_length
    }

    /// Average rate at which requests are lost to a full queue (per unit
    /// time).
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// Average rate of real (non-self) mode switches per unit time — a
    /// proxy for power-manager signal traffic, which the paper argues the
    /// asynchronous policy minimizes.
    #[must_use]
    pub fn switch_frequency(&self) -> f64 {
        self.switch_frequency
    }

    /// Offered request rate `λ`.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Accepted request throughput `λ − loss_rate`.
    #[must_use]
    pub fn effective_arrival_rate(&self) -> f64 {
        self.lambda - self.loss_rate
    }

    /// Average time an accepted request spends in the system, from
    /// Little's law `W = L / λ_eff` (the approximation Table 1 validates).
    #[must_use]
    pub fn waiting_time(&self) -> f64 {
        self.queue_length / self.effective_arrival_rate()
    }
}

impl fmt::Display for PolicyMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "power {:.3} W, queue {:.3}, wait {:.3} s, loss {:.4}/s, switches {:.4}/s",
            self.power,
            self.queue_length,
            self.waiting_time(),
            self.loss_rate,
            self.switch_frequency
        )
    }
}

impl PmSystem {
    /// Builds the generator matrix of the CTMC induced by `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidPolicy`] on mismatch and propagates
    /// generator validation.
    pub fn generator_for(&self, policy: &PmPolicy) -> Result<Generator, DpmError> {
        let mdp_policy = policy.to_mdp_policy(self)?;
        let mut b = Generator::builder(self.n_states());
        let mut row = Vec::new();
        for i in 0..self.n_states() {
            row.clear();
            self.push_transitions(i, mdp_policy.action(i), &mut row);
            for &(to, rate) in &row {
                if rate > 0.0 {
                    b.add_rate(i, to, rate);
                }
            }
        }
        b.build().map_err(DpmError::Chain)
    }

    /// Builds the generator of the CTMC induced by `policy` directly in
    /// sparse (CSR) form, without materializing an `n × n` dense matrix.
    ///
    /// The SYS chain has at most three transitions per state (arrival,
    /// service completion, mode switch), so the sparse generator holds
    /// `O(n)` entries where the dense one holds `n²`. Feed the result to
    /// [`dpm_ctmc::stationary::Solver`] to compute stationary
    /// distributions of large-capacity systems entirely matrix-free.
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidPolicy`] on mismatch and propagates
    /// generator validation.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
    /// use dpm_ctmc::stationary::{Method, Solver};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let system = PmSystem::builder()
    ///     .provider(SpModel::dac99_server()?)
    ///     .requestor(SrModel::poisson(1.0 / 6.0)?)
    ///     .capacity(5)
    ///     .build()?;
    /// let sparse = system.sparse_generator_for(&PmPolicy::greedy(&system)?)?;
    /// let (pi, _) = Solver::new(Method::Iterative).solve(&sparse)?;
    /// assert!((pi.sum() - 1.0).abs() < 1e-10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn sparse_generator_for(
        &self,
        policy: &PmPolicy,
    ) -> Result<dpm_ctmc::SparseGenerator, DpmError> {
        let mdp_policy = policy.to_mdp_policy(self)?;
        // Each state has at most three transitions: an arrival, a service
        // completion and a switch.
        dpm_ctmc::SparseGenerator::from_rows(self.n_states(), 3 * self.n_states(), |i, row| {
            self.push_transitions(i, mdp_policy.action(i), row);
        })
        .map_err(DpmError::Chain)
    }

    /// Computes the long-run metrics of `policy` analytically, as long-run
    /// averages from the initial state ([`PmSystem::initial_state_index`]).
    ///
    /// The policy's chain is factored once
    /// ([`dpm_ctmc::stationary::ChainFactors`]) and the four metrics are
    /// four cost vectors solved in one triangular pass. An
    /// [`crate::optimize::OptimalSolution`] already carries its policy's
    /// metrics, taken from policy iteration's own factors, with the same
    /// bits this returns.
    ///
    /// Any policy is accepted: when its induced chain has several
    /// recurrent classes, the metrics are those of the class mix the
    /// initial state is absorbed into — see [`PmSystem::evaluate_from`].
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidPolicy`] on mismatch and propagates
    /// evaluation failures.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
    ///
    /// # fn main() -> Result<(), dpm_core::DpmError> {
    /// let system = PmSystem::builder()
    ///     .provider(SpModel::dac99_server()?)
    ///     .requestor(SrModel::poisson(1.0 / 6.0)?)
    ///     .capacity(5)
    ///     .build()?;
    /// let always_on = PmPolicy::always_on(&system, 0)?;
    /// let m = system.evaluate(&always_on)?;
    /// // Full power, M/M/1-like queue for rho = 0.25.
    /// assert!((m.power() - 40.0).abs() < 0.01);
    /// assert!(m.queue_length() < 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn evaluate(&self, policy: &PmPolicy) -> Result<PolicyMetrics, DpmError> {
        self.evaluate_from(policy, self.initial_state_index())
    }

    /// As [`PmSystem::evaluate`], but reporting long-run averages starting
    /// from an explicit state — the distinction matters for policies whose
    /// chain has several recurrent classes (e.g. "stay asleep forever at a
    /// full queue"), where the long-run behavior depends on where the
    /// system starts.
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidPolicy`] for a bad start index or policy
    /// mismatch and propagates evaluation failures.
    pub fn evaluate_from(
        &self,
        policy: &PmPolicy,
        start: usize,
    ) -> Result<PolicyMetrics, DpmError> {
        if start >= self.n_states() {
            return Err(DpmError::InvalidPolicy {
                reason: format!("start index {start} out of range"),
            });
        }
        let factors = stationary::ChainFactors::new(&self.sparse_generator_for(policy)?)?;
        self.metrics_from_factors(policy, &factors, start)
    }

    /// The long-run metrics of `policy` from `start`, given the factors of
    /// its chain: power, queue length, loss rate and switch frequency are
    /// four cost vectors solved in one triangular pass
    /// ([`stationary::ChainFactors::gains_each`]).
    /// [`PmSystem::evaluate_from`] factors the chain first;
    /// [`crate::optimize::optimal_policy`] passes the factors policy
    /// iteration's last round built.
    pub(crate) fn metrics_from_factors(
        &self,
        policy: &PmPolicy,
        factors: &stationary::ChainFactors,
        start: usize,
    ) -> Result<PolicyMetrics, DpmError> {
        let mdp_policy = policy.to_mdp_policy(self)?;
        let power_costs = DVector::from_fn(self.n_states(), |i| {
            self.power_cost(i, mdp_policy.action(i))
        });
        let delay_costs = DVector::from_fn(self.n_states(), |i| self.delay_cost(i));
        let loss_costs = DVector::from_vec(self.loss_rate_costs());
        let switch_costs = DVector::from_fn(self.n_states(), |i| {
            let dest = policy.destination(i);
            let mode = self.state(i).mode();
            if dest == mode {
                // Transfer states with a self command complete instantly and
                // do not count as a switch; stable self commands are no-ops.
                0.0
            } else {
                self.provider().switch_rate(mode, dest)
            }
        });

        let [power, queue_length, loss_rate, switch_frequency] = factors
            .gains_each([&power_costs, &delay_costs, &loss_costs, &switch_costs])?
            .map(|gains| gains[start]);

        Ok(PolicyMetrics {
            power,
            queue_length,
            loss_rate,
            switch_frequency,
            lambda: self.requestor().rate(),
        })
    }
}

impl PmSystem {
    /// Expected wake-up latency of `policy`: starting from the arrival
    /// that finds the system in inactive mode `from_mode` with an empty
    /// queue, the expected time until the provider occupies an active mode
    /// (a first-passage quantity on the induced chain).
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidPolicy`] if `from_mode` is not an
    /// inactive mode, and propagates chain analysis failures. Returns
    /// infinity if the policy never wakes from that situation.
    pub fn wakeup_latency(&self, policy: &PmPolicy, from_mode: usize) -> Result<f64, DpmError> {
        let sp = self.provider();
        if from_mode >= sp.n_modes() || sp.is_active(from_mode) {
            return Err(DpmError::InvalidPolicy {
                reason: format!("mode {from_mode} is not an inactive mode"),
            });
        }
        let generator = self.generator_for(policy)?;
        let targets: Vec<usize> = (0..self.n_states())
            .filter(|&i| sp.is_active(self.state(i).mode()))
            .collect();
        let h = dpm_ctmc::hitting::expected_hitting_times(&generator, &targets)
            .map_err(DpmError::Chain)?;
        let start = self
            .index_of(crate::SysState::Stable {
                mode: from_mode,
                jobs: 1,
            })
            // dpm-lint: allow(no_panic, reason = "the state was enumerated by the same PmSystem that is being analyzed")
            .expect("stable state exists");
        Ok(h[start])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpModel, SrModel};
    use dpm_ctmc::birth_death::Mm1k;

    fn paper_system() -> PmSystem {
        PmSystem::builder()
            .provider(SpModel::dac99_server().unwrap())
            .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(5)
            .build()
            .unwrap()
    }

    #[test]
    fn always_on_matches_mm1k_closed_form() {
        let sys = paper_system();
        let policy = PmPolicy::always_on(&sys, 0).unwrap();
        let metrics = sys.evaluate(&policy).unwrap();
        let mm1k = Mm1k::new(1.0 / 6.0, 1.0 / 1.5, 5).unwrap();
        // Transfer states carry ~1e-6 extra mass; tolerate 1e-4.
        assert!(
            (metrics.queue_length() - mm1k.mean_customers()).abs() < 1e-4,
            "queue {} vs M/M/1/K {}",
            metrics.queue_length(),
            mm1k.mean_customers()
        );
        assert!((metrics.power() - 40.0).abs() < 1e-3);
        assert!((metrics.loss_rate() - mm1k.lambda() * mm1k.blocking_probability()).abs() < 1e-6);
        assert!(metrics.switch_frequency().abs() < 1e-3);
    }

    #[test]
    fn greedy_saves_power_but_waits_longer() {
        let sys = paper_system();
        let on = sys
            .evaluate(&PmPolicy::always_on(&sys, 0).unwrap())
            .unwrap();
        let greedy = sys.evaluate(&PmPolicy::greedy(&sys).unwrap()).unwrap();
        assert!(greedy.power() < on.power());
        assert!(greedy.queue_length() > on.queue_length());
        assert!(greedy.switch_frequency() > 0.0);
    }

    #[test]
    fn deeper_n_policies_trade_delay_for_power() {
        let sys = paper_system();
        let mut previous_queue = -1.0;
        for n in 1..=5 {
            let p = PmPolicy::n_policy(&sys, n, 2).unwrap();
            let m = sys.evaluate(&p).unwrap();
            assert!(
                m.queue_length() > previous_queue,
                "N = {n} should queue more than N = {}",
                n - 1
            );
            previous_queue = m.queue_length();
        }
        let n1 = sys
            .evaluate(&PmPolicy::n_policy(&sys, 1, 2).unwrap())
            .unwrap();
        let n5 = sys
            .evaluate(&PmPolicy::n_policy(&sys, 5, 2).unwrap())
            .unwrap();
        assert!(n5.power() < n1.power(), "waking later saves power");
    }

    #[test]
    fn littles_law_consistency() {
        let sys = paper_system();
        let m = sys.evaluate(&PmPolicy::greedy(&sys).unwrap()).unwrap();
        let recomputed = m.queue_length() / (m.lambda() - m.loss_rate());
        assert!((m.waiting_time() - recomputed).abs() < 1e-12);
        assert!(m.effective_arrival_rate() <= m.lambda());
    }

    #[test]
    fn generator_for_produces_valid_chain() {
        let sys = paper_system();
        let g = sys.generator_for(&PmPolicy::greedy(&sys).unwrap()).unwrap();
        assert_eq!(g.n_states(), sys.n_states());
        // The greedy chain visits every queue level and both end modes.
        assert!(dpm_ctmc::graph::is_connected(&g));
    }

    #[test]
    fn sparse_generator_matches_dense_entry_for_entry() {
        let sys = paper_system();
        for policy in [
            PmPolicy::always_on(&sys, 0).unwrap(),
            PmPolicy::greedy(&sys).unwrap(),
            PmPolicy::n_policy(&sys, 3, 2).unwrap(),
        ] {
            let dense = sys.generator_for(&policy).unwrap();
            let sparse = sys.sparse_generator_for(&policy).unwrap();
            assert_eq!(sparse.n_states(), dense.n_states());
            for i in 0..dense.n_states() {
                for j in 0..dense.n_states() {
                    assert_eq!(sparse.rate(i, j), dense.rate(i, j), "entry ({i}, {j})");
                }
            }
            // Far fewer stored entries than the dense n^2.
            assert!(sparse.nnz() < dense.n_states() * 4);
        }
    }

    #[test]
    fn sparse_stationary_matches_dense_stationary() {
        use dpm_ctmc::stationary::{Method, Solver};
        let sys = paper_system();
        let policy = PmPolicy::greedy(&sys).unwrap();
        let dense = sys.generator_for(&policy).unwrap();
        let sparse = sys.sparse_generator_for(&policy).unwrap();
        // The greedy chain is unichain with transient states: both solves
        // run on its closed class.
        let reference = Solver::new(Method::Gth).solve(&dense).unwrap().0;
        let pi = Solver::new(Method::Iterative).solve(&sparse).unwrap().0;
        assert!(
            (&pi - &reference).norm_inf() < 1e-8,
            "sparse iterative diverges from dense GTH by {}",
            (&pi - &reference).norm_inf()
        );
    }

    #[test]
    fn metrics_display_is_readable() {
        let sys = paper_system();
        let m = sys.evaluate(&PmPolicy::greedy(&sys).unwrap()).unwrap();
        let text = m.to_string();
        assert!(text.contains("power"));
        assert!(text.contains('W'));
    }
}

#[cfg(test)]
mod wakeup_tests {
    use crate::{PmPolicy, PmSystem, SpModel, SrModel};

    fn paper_system() -> PmSystem {
        PmSystem::builder()
            .provider(SpModel::dac99_server().unwrap())
            .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(5)
            .build()
            .unwrap()
    }

    #[test]
    fn greedy_wakeup_latency_matches_switching_time() {
        // Greedy wakes immediately: latency from sleeping = mean switch
        // time sleeping -> active = 1.1 s.
        let sys = paper_system();
        let greedy = PmPolicy::greedy(&sys).unwrap();
        let latency = sys.wakeup_latency(&greedy, 2).unwrap();
        assert!(
            (latency - 1.1).abs() < 1e-9,
            "latency {latency} vs switch time 1.1"
        );
    }

    #[test]
    fn deeper_n_policies_wake_later() {
        let sys = paper_system();
        let n1 = sys
            .wakeup_latency(&PmPolicy::n_policy(&sys, 1, 2).unwrap(), 2)
            .unwrap();
        let n3 = sys
            .wakeup_latency(&PmPolicy::n_policy(&sys, 3, 2).unwrap(), 2)
            .unwrap();
        // N = 3 waits for two more arrivals (mean 6 s each) before waking.
        assert!(n3 > n1 + 6.0, "n1 {n1}, n3 {n3}");
    }

    #[test]
    fn wakeup_latency_validates_mode() {
        let sys = paper_system();
        let greedy = PmPolicy::greedy(&sys).unwrap();
        assert!(sys.wakeup_latency(&greedy, 0).is_err());
        assert!(sys.wakeup_latency(&greedy, 9).is_err());
    }
}
