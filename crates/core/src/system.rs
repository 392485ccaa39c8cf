//! Composition of the power-managed system (SYS) from SP, SR and SQ.

use std::fmt;
use std::sync::Arc;

use dpm_mdp::Ctmdp;

use crate::{DpmError, SpModel, SrModel};

/// Default surrogate rate standing in for the conceptually instantaneous
/// self-switch `χ(s, s) = ∞` in transfer states. See
/// [`PmSystemBuilder::instant_rate`].
pub const DEFAULT_INSTANT_RATE: f64 = 1.0e6;

/// One state of the composed system.
///
/// The state space is `S × Q_stable ∪ S_active × Q_transfer` (paper
/// Section III):
///
/// * `Stable { mode, jobs }` — the SQ holds `jobs` requests (including the
///   one in service, if any) and the SP sits in `mode`;
/// * `Transfer { mode, departing }` — the SQ transfer state `q_{i→i-1}`
///   with `i = departing`: a request's service just completed while `i`
///   requests were in the system, the SP (which was serving in the active
///   `mode`) is switching to the mode the power manager commanded, and
///   `i − 1` requests remain physically present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysState {
    /// A stable queue state `q_jobs` with the SP in `mode`.
    Stable {
        /// Current SP mode.
        mode: usize,
        /// Requests in the system, `0..=Q`.
        jobs: usize,
    },
    /// A transfer state `q_{departing → departing-1}` entered at a
    /// service-completion epoch.
    Transfer {
        /// The active mode the SP occupied when service completed.
        mode: usize,
        /// The transfer label `i` (requests in system at completion),
        /// `1..=Q`.
        departing: usize,
    },
}

impl SysState {
    /// The SP mode associated with this state.
    #[must_use]
    pub fn mode(&self) -> usize {
        match *self {
            SysState::Stable { mode, .. } | SysState::Transfer { mode, .. } => mode,
        }
    }

    /// Number of requests physically present (the paper's delay cost
    /// `C_sq`): `jobs` for a stable state, `departing − 1` for a transfer
    /// state.
    #[must_use]
    pub fn requests_present(&self) -> usize {
        match *self {
            SysState::Stable { jobs, .. } => jobs,
            SysState::Transfer { departing, .. } => departing - 1,
        }
    }

    /// Returns `true` for transfer states.
    #[must_use]
    pub fn is_transfer(&self) -> bool {
        matches!(self, SysState::Transfer { .. })
    }
}

impl fmt::Display for SysState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SysState::Stable { mode, jobs } => write!(f, "(m{mode}, q{jobs})"),
            SysState::Transfer { mode, departing } => {
                write!(f, "(m{mode}, q{departing}->{})", departing - 1)
            }
        }
    }
}

/// The composed power-managed system: a controllable Markov process over
/// [`SysState`]s whose actions are target SP modes, with the paper's
/// action-validity constraints applied and the cost structure of
/// Eqn. (3.1) attached.
///
/// # Examples
///
/// ```
/// use dpm_core::{PmSystem, SpModel, SrModel};
///
/// # fn main() -> Result<(), dpm_core::DpmError> {
/// let system = PmSystem::builder()
///     .provider(SpModel::dac99_server()?)
///     .requestor(SrModel::poisson(1.0 / 6.0)?)
///     .capacity(5)
///     .build()?;
/// // 3 modes x 6 stable queue states + 1 active mode x 5 transfer states.
/// assert_eq!(system.n_states(), 3 * 6 + 1 * 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PmSystem {
    sp: SpModel,
    sr: SrModel,
    capacity: usize,
    instant_rate: f64,
    states: Vec<SysState>,
    /// `active_pos[mode]`: the mode's position among the active modes,
    /// whose transfer states follow the stable ones in that order; `None`
    /// for an inactive mode.
    active_pos: Vec<Option<usize>>,
    /// Index of the canonical initial state.
    initial_state: usize,
    /// Valid destination modes per state (the action sets `A_x`).
    action_dests: Vec<Vec<usize>>,
    /// Power cost rate per state per action (parallel to `action_dests`).
    power_cost: Vec<Vec<f64>>,
    /// Delay cost per state (requests present).
    delay_cost: Vec<f64>,
}

impl PmSystem {
    /// Starts building a system.
    #[must_use]
    pub fn builder() -> PmSystemBuilder {
        PmSystemBuilder::default()
    }

    /// The provider model.
    #[must_use]
    pub fn provider(&self) -> &SpModel {
        &self.sp
    }

    /// The requestor model.
    #[must_use]
    pub fn requestor(&self) -> &SrModel {
        &self.sr
    }

    /// Queue capacity `Q`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The surrogate rate used for instantaneous self-switches.
    #[must_use]
    pub fn instant_rate(&self) -> f64 {
        self.instant_rate
    }

    /// Number of composed states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// The state with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn state(&self, index: usize) -> SysState {
        self.states[index]
    }

    /// All states in index order.
    #[must_use]
    pub fn states(&self) -> &[SysState] {
        &self.states
    }

    /// Index of a state, or `None` if it is not part of the state space
    /// (e.g. a transfer state for an inactive mode).
    #[must_use]
    pub fn index_of(&self, state: SysState) -> Option<usize> {
        let q = self.capacity;
        match state {
            SysState::Stable { mode, jobs } if mode < self.sp.n_modes() && jobs <= q => {
                Some(self.stable_index(mode, jobs))
            }
            SysState::Transfer { mode, departing } if (1..=q).contains(&departing) => self
                .active_pos
                .get(mode)
                .copied()
                .flatten()
                .map(|pos| self.transfer_index(pos, departing)),
            _ => None,
        }
    }

    /// Index of `Stable { mode, jobs }`: stable states come first, mode by
    /// mode.
    fn stable_index(&self, mode: usize, jobs: usize) -> usize {
        mode * (self.capacity + 1) + jobs
    }

    /// Index of `Transfer { mode, departing }` for the mode at position
    /// `pos` among the active modes: transfer states follow the stable
    /// ones, active mode by active mode.
    fn transfer_index(&self, pos: usize, departing: usize) -> usize {
        let q = self.capacity;
        self.sp.n_modes() * (q + 1) + pos * q + (departing - 1)
    }

    /// Valid destination modes (the action set `A_x`) for the state at
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn action_destinations(&self, index: usize) -> &[usize] {
        &self.action_dests[index]
    }

    /// Power cost rate `C_pow(x, a)` for the state at `index` under the
    /// `action`-th valid destination.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn power_cost(&self, index: usize, action: usize) -> f64 {
        self.power_cost[index][action]
    }

    /// Delay cost `C_sq(x)` (requests present) for the state at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn delay_cost(&self, index: usize) -> f64 {
        self.delay_cost[index]
    }

    /// Per-state delay costs as a plain vector (for constrained LP solves).
    #[must_use]
    pub fn delay_costs(&self) -> Vec<f64> {
        self.delay_cost.clone()
    }

    /// Off-diagonal transition rates out of state `index` under the
    /// `action`-th valid destination, as `(target_index, rate)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn transitions(&self, index: usize, action: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.push_transitions(index, action, &mut out);
        out
    }

    /// Appends [`PmSystem::transitions`] to `out`: arrival, service
    /// completion, then the commanded switch. Each target index is
    /// computed from the state's own, so nothing is looked up or
    /// allocated.
    pub(crate) fn push_transitions(
        &self,
        index: usize,
        action: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        let dest = self.action_dests[index][action];
        let lambda = self.sr.rate();
        let q = self.capacity;
        match self.states[index] {
            SysState::Stable { mode, jobs } => {
                if jobs < q {
                    // `Stable { mode, jobs + 1 }` is the next index.
                    out.push((index + 1, lambda));
                }
                // A mode has a position exactly when it serves (μ > 0).
                if let (Some(pos), true) = (self.active_pos[mode], jobs >= 1) {
                    out.push((self.transfer_index(pos, jobs), self.sp.service_rate(mode)));
                }
                if dest != mode {
                    out.push((
                        self.stable_index(dest, jobs),
                        self.sp.switch_rate(mode, dest),
                    ));
                }
            }
            SysState::Transfer { mode, departing } => {
                if departing < q {
                    // `Transfer { mode, departing + 1 }` is the next index.
                    out.push((index + 1, lambda));
                }
                let rate = if dest == mode {
                    self.instant_rate
                } else {
                    self.sp.switch_rate(mode, dest)
                };
                out.push((self.stable_index(dest, departing - 1), rate));
            }
        }
    }

    /// Builds the CTMDP with total cost rate
    /// `Cost(x, a) = C_pow(x, a) + weight · C_sq(x)` (Eqn. 3.1).
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidModel`] for a negative or non-finite
    /// weight, and propagates CTMDP construction failures.
    pub fn ctmdp(&self, weight: f64) -> Result<Ctmdp, DpmError> {
        if !(weight >= 0.0 && weight.is_finite()) {
            return Err(DpmError::InvalidModel {
                reason: format!("performance weight {weight} must be finite and >= 0"),
            });
        }
        // One label per mode and one transition buffer, shared by every
        // state-action pair.
        let labels: Vec<Arc<str>> = (0..self.sp.n_modes())
            .map(|mode| Arc::from(format!("->{}", self.sp.label(mode))))
            .collect();
        let mut rates = Vec::new();
        let mut b = Ctmdp::builder(self.n_states());
        for index in 0..self.n_states() {
            for (action, &dest) in self.action_dests[index].iter().enumerate() {
                let cost = self.power_cost[index][action] + weight * self.delay_cost[index];
                rates.clear();
                self.push_transitions(index, action, &mut rates);
                b.action(index, Arc::clone(&labels[dest]), cost, &rates)
                    .map_err(DpmError::Mdp)?;
            }
        }
        b.build().map_err(DpmError::Mdp)
    }

    /// Returns a builder pre-populated with this system's components —
    /// the supported way to re-pose a system with different parameters
    /// (most commonly [`PmSystemBuilder::instant_rate`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_core::{PmSystem, SpModel, SrModel};
    ///
    /// # fn main() -> Result<(), dpm_core::DpmError> {
    /// let system = PmSystem::builder()
    ///     .provider(SpModel::dac99_server()?)
    ///     .requestor(SrModel::poisson(1.0 / 6.0)?)
    ///     .capacity(5)
    ///     .build()?;
    /// let gentler = system.to_builder().instant_rate(1e3).build()?;
    /// assert_eq!(gentler.n_states(), system.n_states());
    /// assert_eq!(gentler.instant_rate(), 1e3);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn to_builder(&self) -> PmSystemBuilder {
        PmSystemBuilder {
            sp: Some(self.sp.clone()),
            sr: Some(self.sr),
            capacity: Some(self.capacity),
            instant_rate: Some(self.instant_rate),
        }
    }

    /// Index of the canonical initial state: empty queue with the SP in its
    /// fastest active mode. Long-run metrics of multichain policies are
    /// reported from here.
    #[must_use]
    pub fn initial_state_index(&self) -> usize {
        self.initial_state
    }

    /// Per-state indicator of "arrivals are lost here" (queue full),
    /// scaled by `λ` — its long-run average is the request loss rate.
    #[must_use]
    pub fn loss_rate_costs(&self) -> Vec<f64> {
        self.states
            .iter()
            .map(|s| match *s {
                SysState::Stable { jobs, .. } if jobs == self.capacity => self.sr.rate(),
                SysState::Transfer { departing, .. } if departing == self.capacity => {
                    self.sr.rate()
                }
                _ => 0.0,
            })
            .collect()
    }
}

impl fmt::Display for PmSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PmSystem: {} modes x capacity {} -> {} states (lambda = {})",
            self.sp.n_modes(),
            self.capacity,
            self.n_states(),
            self.sr.rate()
        )
    }
}

/// Builder for [`PmSystem`].
#[derive(Debug, Clone, Default)]
pub struct PmSystemBuilder {
    sp: Option<SpModel>,
    sr: Option<SrModel>,
    capacity: Option<usize>,
    instant_rate: Option<f64>,
}

impl PmSystemBuilder {
    /// Sets the service-provider model.
    #[must_use]
    pub fn provider(mut self, sp: SpModel) -> Self {
        self.sp = Some(sp);
        self
    }

    /// Sets the service-requestor model.
    #[must_use]
    pub fn requestor(mut self, sr: SrModel) -> Self {
        self.sr = Some(sr);
        self
    }

    /// Sets the queue capacity `Q` (≥ 1). Requests arriving at a full
    /// queue are lost.
    #[must_use]
    pub fn capacity(mut self, q: usize) -> Self {
        self.capacity = Some(q);
        self
    }

    /// Overrides the surrogate rate used for the conceptually instantaneous
    /// self-switch in transfer states (`χ(s, s) = ∞` in the paper).
    ///
    /// The default [`DEFAULT_INSTANT_RATE`] puts about `μ / rate` of
    /// stationary probability mass in such states (≈10⁻⁶ for the paper's
    /// parameters), far below both simulation noise and the paper's
    /// reported model-vs-simulation agreement.
    ///
    /// # When solvers re-pose the surrogate
    ///
    /// The surrogate is a stiffness knob: the model error of lowering it is
    /// always `O(μ / rate)`, but some solvers cannot tolerate a 1e6-rate
    /// outlier among O(1) rates. Two situations re-pose the model through
    /// [`PmSystem::to_builder`] with a gentler rate:
    ///
    /// * [`crate::optimize::constrained_lp`] does so internally (to
    ///   `1000 × max_rate`), because the occupation-measure LP mixes every
    ///   rate into one constraint matrix and the default surrogate would
    ///   dominate its conditioning;
    /// * callers of a uniformization-based solver
    ///   (`dpm_mdp::value_iteration`) should lower it themselves (e.g. to
    ///   `1e2`), because uniformized sweeps take
    ///   `O(instant_rate / slowest_rate)` iterations to mix. The
    ///   Gauss–Seidel balance-equation solver behind
    ///   `dpm_ctmc::stationary::Method::Iterative` relaxes each state
    ///   against its own exit rate and needs no re-posing.
    #[must_use]
    pub fn instant_rate(mut self, rate: f64) -> Self {
        self.instant_rate = Some(rate);
        self
    }

    /// Composes and validates the system.
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidModel`] if a component is missing, the
    /// capacity is zero, the instant rate is not positive, or some state
    /// would end up with an empty action set.
    pub fn build(self) -> Result<PmSystem, DpmError> {
        let sp = self.sp.ok_or_else(|| DpmError::InvalidModel {
            reason: "provider model is required".to_owned(),
        })?;
        let sr = self.sr.ok_or_else(|| DpmError::InvalidModel {
            reason: "requestor model is required".to_owned(),
        })?;
        let capacity = self.capacity.ok_or_else(|| DpmError::InvalidModel {
            reason: "queue capacity is required".to_owned(),
        })?;
        if capacity == 0 {
            return Err(DpmError::InvalidModel {
                reason: "queue capacity must be at least 1".to_owned(),
            });
        }
        let instant_rate = self.instant_rate.unwrap_or(DEFAULT_INSTANT_RATE);
        if !(instant_rate > 0.0 && instant_rate.is_finite()) {
            return Err(DpmError::InvalidModel {
                reason: format!("instant rate {instant_rate} must be positive and finite"),
            });
        }
        if instant_rate <= sp.max_rate() {
            return Err(DpmError::InvalidModel {
                reason: format!(
                    "instant rate {instant_rate} must exceed every model rate ({})",
                    sp.max_rate()
                ),
            });
        }

        // Enumerate states: all (mode, jobs) stable, then transfer states
        // for active modes.
        let s = sp.n_modes();
        let active = sp.active_modes();
        let mut states = Vec::with_capacity(s * (capacity + 1));
        for mode in 0..s {
            for jobs in 0..=capacity {
                states.push(SysState::Stable { mode, jobs });
            }
        }
        let mut active_pos = vec![None; s];
        for (pos, &mode) in active.iter().enumerate() {
            active_pos[mode] = Some(pos);
            for departing in 1..=capacity {
                states.push(SysState::Transfer { mode, departing });
            }
        }
        // The canonical initial state: empty queue, fastest active mode
        // (the last one on a tie).
        let fastest = active
            .iter()
            .copied()
            .max_by(|&a, &b| sp.service_rate(a).total_cmp(&sp.service_rate(b)))
            .ok_or_else(|| DpmError::InvalidModel {
                reason: "provider has no active mode".to_owned(),
            })?;
        let initial_state = fastest * (capacity + 1);

        // Action sets under the paper's validity constraints.
        let mut action_dests = Vec::with_capacity(states.len());
        let mut power_cost = Vec::with_capacity(states.len());
        let mut delay_cost = Vec::with_capacity(states.len());
        for &state in &states {
            let mut dests = Vec::new();
            match state {
                SysState::Stable { mode, jobs } => {
                    // Constraint (2), strengthened as the paper's rationale
                    // demands ("the service speed cannot follow the
                    // generation speed... we need to increase the service
                    // speed", and the claim that the constraints make every
                    // policy's chain connected): at q_Q an inactive provider
                    // may not idle — it must switch to an active mode or to
                    // an inactive mode with strictly shorter wakeup time.
                    let forced_wakeup = jobs == capacity && !sp.is_active(mode);
                    for dest in 0..s {
                        if dest == mode {
                            if !forced_wakeup {
                                dests.push(dest);
                            }
                            continue;
                        }
                        if sp.switch_rate(mode, dest) <= 0.0 {
                            continue;
                        }
                        // Constraint (1): no active -> inactive switches in
                        // stable states.
                        if sp.is_active(mode) && !sp.is_active(dest) {
                            continue;
                        }
                        // Constraint (2): at q_Q, no inactive -> inactive
                        // switch to a (weakly) longer-wakeup mode.
                        if forced_wakeup
                            && !sp.is_active(dest)
                            && sp.wakeup_time(dest) >= sp.wakeup_time(mode)
                        {
                            continue;
                        }
                        dests.push(dest);
                    }
                }
                SysState::Transfer { mode, departing } => {
                    for dest in 0..s {
                        if dest == mode {
                            dests.push(dest);
                            continue;
                        }
                        if sp.switch_rate(mode, dest) <= 0.0 {
                            continue;
                        }
                        // Constraint (3): at q_{Q -> Q-1}, no switch to a
                        // slower active mode.
                        if departing == capacity
                            && sp.is_active(dest)
                            && sp.service_rate(dest) < sp.service_rate(mode)
                        {
                            continue;
                        }
                        dests.push(dest);
                    }
                }
            }
            if dests.is_empty() {
                return Err(DpmError::InvalidModel {
                    reason: format!("state {state} has an empty action set"),
                });
            }
            let costs: Vec<f64> = dests
                .iter()
                .map(|&dest| {
                    let mode = state.mode();
                    let mut c = sp.power(mode);
                    if dest != mode {
                        c += sp.switch_rate(mode, dest) * sp.switch_energy(mode, dest);
                    }
                    c
                })
                .collect();
            power_cost.push(costs);
            delay_cost.push(state.requests_present() as f64);
            action_dests.push(dests);
        }

        Ok(PmSystem {
            sp,
            sr,
            capacity,
            instant_rate,
            states,
            active_pos,
            initial_state,
            action_dests,
            power_cost,
            delay_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_system() -> PmSystem {
        PmSystem::builder()
            .provider(SpModel::dac99_server().unwrap())
            .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(5)
            .build()
            .unwrap()
    }

    #[test]
    fn state_space_matches_paper_structure() {
        let sys = paper_system();
        // S * (Q+1) stable + |S_active| * Q transfer = 18 + 5.
        assert_eq!(sys.n_states(), 23);
        assert_eq!(sys.capacity(), 5);
        let full = SysState::Stable { mode: 2, jobs: 5 };
        assert_eq!(sys.state(sys.index_of(full).unwrap()), full);
        // No transfer states for inactive modes.
        assert_eq!(
            sys.index_of(SysState::Transfer {
                mode: 2,
                departing: 1
            }),
            None
        );
        assert_eq!(
            sys.index_of(SysState::Transfer {
                mode: 0,
                departing: 6
            }),
            None
        );
    }

    #[test]
    fn index_round_trips() {
        let sys = paper_system();
        for i in 0..sys.n_states() {
            assert_eq!(sys.index_of(sys.state(i)), Some(i), "state {i}");
        }
    }

    #[test]
    fn requests_present_counts() {
        assert_eq!(SysState::Stable { mode: 0, jobs: 3 }.requests_present(), 3);
        assert_eq!(
            SysState::Transfer {
                mode: 0,
                departing: 3
            }
            .requests_present(),
            2
        );
    }

    #[test]
    fn constraint_1_blocks_active_to_inactive_in_stable_states() {
        let sys = paper_system();
        for jobs in 0..=5 {
            let i = sys.index_of(SysState::Stable { mode: 0, jobs }).unwrap();
            let dests = sys.action_destinations(i);
            assert!(dests.contains(&0), "self always valid");
            assert!(!dests.contains(&1), "active->waiting forbidden at q{jobs}");
            assert!(!dests.contains(&2), "active->sleeping forbidden at q{jobs}");
        }
    }

    #[test]
    fn constraint_2_blocks_deeper_sleep_when_full() {
        let sys = paper_system();
        // waiting (wakeup 0.5) at q_Q: cannot go to sleeping (wakeup 1.1),
        // and cannot idle — it must wake.
        let i = sys.index_of(SysState::Stable { mode: 1, jobs: 5 }).unwrap();
        assert!(!sys.action_destinations(i).contains(&2));
        assert!(!sys.action_destinations(i).contains(&1));
        assert_eq!(sys.action_destinations(i), &[0]);
        // but at q < Q it can.
        let i = sys.index_of(SysState::Stable { mode: 1, jobs: 4 }).unwrap();
        assert!(sys.action_destinations(i).contains(&2));
        // sleeping at q_Q may move to waiting (shorter wakeup).
        let i = sys.index_of(SysState::Stable { mode: 2, jobs: 5 }).unwrap();
        assert!(sys.action_destinations(i).contains(&1));
        // and wakeup is always allowed.
        assert!(sys.action_destinations(i).contains(&0));
    }

    #[test]
    fn transfer_states_allow_sleep_commands() {
        let sys = paper_system();
        let i = sys
            .index_of(SysState::Transfer {
                mode: 0,
                departing: 1,
            })
            .unwrap();
        let dests = sys.action_destinations(i);
        assert!(dests.contains(&0));
        assert!(dests.contains(&1));
        assert!(dests.contains(&2));
    }

    #[test]
    fn constraint_3_single_active_mode_is_vacuous() {
        // With one active mode there is no slower active mode to forbid.
        let sys = paper_system();
        let i = sys
            .index_of(SysState::Transfer {
                mode: 0,
                departing: 5,
            })
            .unwrap();
        assert_eq!(sys.action_destinations(i).len(), 3);
    }

    #[test]
    fn stable_transitions_race_arrival_service_switch() {
        let sys = paper_system();
        // waiting with 2 jobs, action -> active.
        let i = sys.index_of(SysState::Stable { mode: 1, jobs: 2 }).unwrap();
        let action = sys
            .action_destinations(i)
            .iter()
            .position(|&d| d == 0)
            .unwrap();
        let ts = sys.transitions(i, action);
        // arrival + switch (no service in an inactive mode).
        assert_eq!(ts.len(), 2);
        let arrival = sys.index_of(SysState::Stable { mode: 1, jobs: 3 }).unwrap();
        let switched = sys.index_of(SysState::Stable { mode: 0, jobs: 2 }).unwrap();
        let rate_of = |target: usize| {
            ts.iter()
                .find(|&&(t, _)| t == target)
                .map(|&(_, r)| r)
                .unwrap()
        };
        assert!((rate_of(arrival) - 1.0 / 6.0).abs() < 1e-12);
        assert!((rate_of(switched) - 1.0 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn active_stable_service_enters_transfer() {
        let sys = paper_system();
        let i = sys.index_of(SysState::Stable { mode: 0, jobs: 3 }).unwrap();
        let ts = sys.transitions(i, 0); // only action: stay active
        let transfer = sys
            .index_of(SysState::Transfer {
                mode: 0,
                departing: 3,
            })
            .unwrap();
        let service = ts.iter().find(|&&(t, _)| t == transfer).unwrap();
        assert!((service.1 - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_self_action_uses_instant_rate() {
        let sys = paper_system();
        let i = sys
            .index_of(SysState::Transfer {
                mode: 0,
                departing: 2,
            })
            .unwrap();
        let stay = sys
            .action_destinations(i)
            .iter()
            .position(|&d| d == 0)
            .unwrap();
        let ts = sys.transitions(i, stay);
        let continuation = sys.index_of(SysState::Stable { mode: 0, jobs: 1 }).unwrap();
        let jump = ts.iter().find(|&&(t, _)| t == continuation).unwrap();
        assert_eq!(jump.1, DEFAULT_INSTANT_RATE);
    }

    #[test]
    fn arrivals_are_lost_when_full() {
        let sys = paper_system();
        // Full stable state: no arrival transition; the (forced) wake-up
        // switch is the only way out.
        let i = sys.index_of(SysState::Stable { mode: 2, jobs: 5 }).unwrap();
        let wake = sys
            .action_destinations(i)
            .iter()
            .position(|&d| d == 0)
            .unwrap();
        let ts = sys.transitions(i, wake);
        assert_eq!(ts.len(), 1, "only the mode switch leaves a full queue");
        // Full transfer state: only the completion edge.
        let i = sys
            .index_of(SysState::Transfer {
                mode: 0,
                departing: 5,
            })
            .unwrap();
        let stay = sys
            .action_destinations(i)
            .iter()
            .position(|&d| d == 0)
            .unwrap();
        assert_eq!(sys.transitions(i, stay).len(), 1);
    }

    #[test]
    fn power_costs_include_switching_energy() {
        let sys = paper_system();
        let i = sys.index_of(SysState::Stable { mode: 2, jobs: 1 }).unwrap();
        let dests = sys.action_destinations(i);
        let stay = dests.iter().position(|&d| d == 2).unwrap();
        let wake = dests.iter().position(|&d| d == 0).unwrap();
        assert!((sys.power_cost(i, stay) - 0.1).abs() < 1e-12);
        // pow + chi * ene = 0.1 + (1/1.1) * 11.
        assert!((sys.power_cost(i, wake) - (0.1 + 11.0 / 1.1)).abs() < 1e-12);
    }

    #[test]
    fn delay_costs_follow_requests_present() {
        let sys = paper_system();
        let stable = sys.index_of(SysState::Stable { mode: 0, jobs: 4 }).unwrap();
        assert_eq!(sys.delay_cost(stable), 4.0);
        let transfer = sys
            .index_of(SysState::Transfer {
                mode: 0,
                departing: 4,
            })
            .unwrap();
        assert_eq!(sys.delay_cost(transfer), 3.0);
    }

    #[test]
    fn loss_costs_mark_full_states() {
        let sys = paper_system();
        let costs = sys.loss_rate_costs();
        let full = sys.index_of(SysState::Stable { mode: 0, jobs: 5 }).unwrap();
        let almost = sys.index_of(SysState::Stable { mode: 0, jobs: 4 }).unwrap();
        assert!((costs[full] - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(costs[almost], 0.0);
        let t_full = sys
            .index_of(SysState::Transfer {
                mode: 0,
                departing: 5,
            })
            .unwrap();
        assert!((costs[t_full] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ctmdp_weight_shifts_costs() {
        let sys = paper_system();
        let m0 = sys.ctmdp(0.0).unwrap();
        let m1 = sys.ctmdp(2.0).unwrap();
        let i = sys.index_of(SysState::Stable { mode: 0, jobs: 3 }).unwrap();
        let c0 = m0.actions(i)[0].cost_rate();
        let c1 = m1.actions(i)[0].cost_rate();
        assert!((c1 - c0 - 6.0).abs() < 1e-12);
        assert!(sys.ctmdp(-1.0).is_err());
        assert!(sys.ctmdp(f64::NAN).is_err());
    }

    #[test]
    fn builder_validations() {
        let sp = SpModel::dac99_server().unwrap();
        let sr = SrModel::poisson(0.2).unwrap();
        assert!(PmSystem::builder()
            .requestor(sr)
            .capacity(2)
            .build()
            .is_err());
        assert!(PmSystem::builder()
            .provider(sp.clone())
            .capacity(2)
            .build()
            .is_err());
        assert!(PmSystem::builder()
            .provider(sp.clone())
            .requestor(sr)
            .build()
            .is_err());
        assert!(PmSystem::builder()
            .provider(sp.clone())
            .requestor(sr)
            .capacity(0)
            .build()
            .is_err());
        assert!(PmSystem::builder()
            .provider(sp.clone())
            .requestor(sr)
            .capacity(2)
            .instant_rate(0.5) // below model rates
            .build()
            .is_err());
        assert!(PmSystem::builder()
            .provider(sp)
            .requestor(sr)
            .capacity(2)
            .instant_rate(f64::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn display_summarizes() {
        let text = paper_system().to_string();
        assert!(text.contains("23 states"));
    }
}
