//! The event-driven simulation engine.
//!
//! The engine mirrors the continuous-time model exactly: service times,
//! switching times and (by default) inter-arrival times are exponential;
//! the power manager is consulted on every state change and its command is
//! applied asynchronously. One deliberate difference from the numeric
//! model: a *self* command in a transfer state completes in truly zero
//! time here, whereas the Markov model approximates `χ(s, s) = ∞` with a
//! large finite surrogate rate — comparing the two quantifies that
//! approximation (it is far below simulation noise).
//!
//! Because every stochastic delay except arrivals is exponential, the
//! engine may *resample* pending service/switch delays at each event
//! (memorylessness makes this distributionally exact), which keeps the
//! main loop a simple race between at most four candidate events.

use std::collections::VecDeque;
use std::sync::Arc;

use dpm_core::{SpModel, SysState};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::controller::{Controller, Observation, SimEvent};
use crate::rng::exponential;
use crate::workload::Workload;
use crate::{SimError, SimReport};

/// Number of batches used for batch-means confidence intervals.
const BATCHES: usize = 20;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    seed: u64,
    max_requests: u64,
    max_time: Option<f64>,
    initial_mode: Option<usize>,
    event_budget: u64,
}

impl SimConfig {
    /// Creates a configuration with the paper's default workload size of
    /// 50,000 requests.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            max_requests: 50_000,
            max_time: None,
            initial_mode: None,
            event_budget: 0,
        }
    }

    /// Limits the number of requests generated.
    #[must_use]
    pub fn max_requests(mut self, n: u64) -> Self {
        self.max_requests = n;
        self
    }

    /// Additionally stops the run at this simulated time.
    #[must_use]
    pub fn max_time(mut self, t: f64) -> Self {
        self.max_time = Some(t);
        self
    }

    /// Starts the provider in this mode (default: its fastest active
    /// mode).
    #[must_use]
    pub fn initial_mode(mut self, mode: usize) -> Self {
        self.initial_mode = Some(mode);
        self
    }
}

/// The event-driven simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Simulator<W, C> {
    sp: Arc<SpModel>,
    capacity: usize,
    workload: W,
    controller: C,
    config: SimConfig,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum NextEvent {
    Arrival,
    Service,
    Switch,
    Timer,
}

#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    time: f64,
    energy: f64,
    completed: u64,
    sojourn_sum: f64,
}

impl<W: Workload, C: Controller> Simulator<W, C> {
    /// Creates a simulator over the provider `sp` with the given queue
    /// capacity, workload and power-management controller.
    ///
    /// `sp` is an [`SpModel`] or an `Arc` of one: runs never change their
    /// provider, so a fleet of runs can share one copy.
    #[must_use]
    pub fn new(
        sp: impl Into<Arc<SpModel>>,
        capacity: usize,
        workload: W,
        controller: C,
        config: SimConfig,
    ) -> Self {
        Simulator {
            sp: sp.into(),
            capacity,
            workload,
            controller,
            config,
        }
    }

    /// Runs the simulation to completion.
    ///
    /// The run ends when the workload is exhausted (or `max_requests`
    /// arrivals were generated) *and* the queue has drained, or at
    /// `max_time` if set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for inconsistent setup,
    /// [`SimError::InvalidCommand`] if the controller commands an
    /// impossible switch, and [`SimError::EventBudgetExhausted`] if a
    /// controller stalls the clock.
    pub fn run(self) -> Result<SimReport, SimError> {
        let mut run = self.start()?;
        while run.step()? {}
        Ok(run.into_report())
    }

    /// Validates the configuration and returns a [`SimRun`] that can be
    /// advanced one event at a time.
    ///
    /// Stepped execution processes exactly the same event sequence as
    /// [`Simulator::run`] — each system owns its RNG, so interleaving
    /// steps of *different* runs (as the `dpm-serve` sharded runtime does
    /// for batched event processing) cannot perturb any individual run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for inconsistent setup.
    pub fn start(mut self) -> Result<SimRun<W, C>, SimError> {
        if self.capacity == 0 {
            return Err(SimError::InvalidConfig {
                reason: "queue capacity must be at least 1".to_owned(),
            });
        }
        let initial_mode = match self.config.initial_mode {
            Some(m) if m < self.sp.n_modes() => m,
            Some(m) => {
                return Err(SimError::InvalidConfig {
                    reason: format!("initial mode {m} out of range"),
                })
            }
            None => self
                .sp
                .active_modes()
                .into_iter()
                .max_by(|&a, &b| {
                    // Rates are validated finite at model construction, so
                    // total_cmp agrees with the partial order here while
                    // staying total (and panic-free) by construction.
                    self.sp.service_rate(a).total_cmp(&self.sp.service_rate(b))
                })
                .ok_or_else(|| SimError::InvalidConfig {
                    reason: "provider has no active mode".to_owned(),
                })?,
        };

        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let event_budget = if self.config.event_budget > 0 {
            self.config.event_budget
        } else {
            // Generous: tens of events per request, plus slack for
            // timer-heavy policies.
            1_000_000 + 200 * self.config.max_requests
        };
        let snapshot_every = (self.config.max_requests / BATCHES as u64).max(1);
        // First arrival.
        let next_arrival: Option<f64> = self.workload.next_interarrival(&mut rng);

        Ok(SimRun {
            sp: self.sp,
            capacity: self.capacity,
            workload: self.workload,
            controller: self.controller,
            config: self.config,
            rng,
            time: 0.0,
            mode: initial_mode,
            in_transfer: false,
            queue: VecDeque::new(),
            occupancy_energy: 0.0,
            switch_energy: 0.0,
            queue_integral: 0.0,
            arrivals: 0,
            completed: 0,
            lost: 0,
            switches: 0,
            sojourn_sum: 0.0,
            snapshots: Vec::with_capacity(BATCHES + 1),
            snapshot_every,
            arrivals_to_snapshot: snapshot_every,
            next_arrival,
            last_event: SimEvent::Start,
            event_budget,
            events: 0,
            consultations: 0,
            drain_timer_streak: 0,
            finished: false,
        })
    }
}

/// An in-flight simulation: the state machine behind [`Simulator::run`],
/// advanced one event at a time with [`SimRun::step`].
///
/// Obtained from [`Simulator::start`]. A run is *finished* once `step`
/// returns `Ok(false)`; [`SimRun::into_report`] then yields exactly the
/// report `Simulator::run` would have produced. Multiple independent runs
/// may be stepped in any interleaving — each owns its seeded RNG, so the
/// per-run event sequence is invariant under scheduling.
#[derive(Debug)]
pub struct SimRun<W, C> {
    sp: Arc<SpModel>,
    capacity: usize,
    workload: W,
    controller: C,
    config: SimConfig,
    rng: ChaCha8Rng,
    time: f64,
    mode: usize,
    in_transfer: bool,
    queue: VecDeque<f64>,
    occupancy_energy: f64,
    switch_energy: f64,
    queue_integral: f64,
    arrivals: u64,
    completed: u64,
    lost: u64,
    switches: u64,
    sojourn_sum: f64,
    snapshots: Vec<Snapshot>,
    snapshot_every: u64,
    /// Arrivals left until the next batch snapshot: counts down from
    /// `snapshot_every`, so snapshots land on every `snapshot_every`-th
    /// arrival without a division per arrival.
    arrivals_to_snapshot: u64,
    next_arrival: Option<f64>,
    last_event: SimEvent,
    event_budget: u64,
    events: u64,
    consultations: u64,
    drain_timer_streak: u32,
    finished: bool,
}

impl<W: Workload, C: Controller> SimRun<W, C> {
    /// Processes one engine event (a controller consultation plus the
    /// event race it decides). Returns `Ok(true)` while the run has more
    /// events, `Ok(false)` once it has finished; stepping a finished run
    /// is a no-op returning `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCommand`] if the controller commands an
    /// impossible switch, and [`SimError::EventBudgetExhausted`] if a
    /// controller stalls the clock.
    pub fn step(&mut self) -> Result<bool, SimError> {
        if self.finished {
            return Ok(false);
        }
        self.events += 1;
        if self.events > self.event_budget {
            return Err(SimError::EventBudgetExhausted {
                events: self.events,
            });
        }

        // Observe and consult the power manager (asynchronously: only
        // here, at state changes).
        let state = if self.in_transfer {
            SysState::Transfer {
                mode: self.mode,
                departing: self.queue.len() + 1,
            }
        } else {
            SysState::Stable {
                mode: self.mode,
                jobs: self.queue.len(),
            }
        };
        let observation = Observation {
            time: self.time,
            state,
        };
        self.consultations += 1;
        let command = self
            .controller
            .command(&observation, self.last_event, &mut self.rng);
        if command.target >= self.sp.n_modes()
            || (command.target != self.mode && !self.sp.can_switch(self.mode, command.target))
        {
            return Err(SimError::InvalidCommand {
                from: self.mode,
                to: command.target,
            });
        }
        // Instantaneous self-switch completes the transfer in zero time.
        if self.in_transfer && command.target == self.mode {
            self.in_transfer = false;
            self.last_event = SimEvent::SwitchComplete;
            return Ok(true);
        }

        // Each command defines the timer until the next consultation
        // (controllers that want a standing timer re-request it — the
        // next consultation happens no later than the timer anyway).
        let timer_deadline: Option<f64> = command.timer.map(|d| self.time + d.max(0.0));

        // Race the candidate events.
        let mut winner: Option<(f64, NextEvent)> = None;
        let mut consider = |t: f64, kind: NextEvent| {
            if winner.is_none_or(|(wt, _)| t < wt) {
                winner = Some((t, kind));
            }
        };
        if let Some(t) = self.next_arrival {
            consider(t, NextEvent::Arrival);
        }
        if !self.in_transfer && self.sp.service_rate(self.mode) > 0.0 && !self.queue.is_empty() {
            consider(
                self.time + exponential(&mut self.rng, self.sp.service_rate(self.mode)),
                NextEvent::Service,
            );
        }
        if command.target != self.mode {
            consider(
                self.time
                    + exponential(
                        &mut self.rng,
                        self.sp.switch_rate(self.mode, command.target),
                    ),
                NextEvent::Switch,
            );
        }
        if let Some(t) = timer_deadline {
            consider(t, NextEvent::Timer);
        }

        let Some((event_time, kind)) = winner else {
            // Nothing can ever happen again: drain and stop.
            self.finished = true;
            return Ok(false);
        };
        let mut event_time = event_time;
        let mut stop_after = false;
        if let Some(limit) = self.config.max_time {
            if event_time >= limit {
                event_time = limit;
                stop_after = true;
            }
        }

        // Integrate time-weighted statistics over the elapsed interval.
        let dt = event_time - self.time;
        self.occupancy_energy += self.sp.power(self.mode) * dt;
        self.queue_integral += self.queue.len() as f64 * dt;
        self.time = event_time;
        if stop_after {
            self.finished = true;
            return Ok(false);
        }

        match kind {
            NextEvent::Arrival => {
                self.arrivals += 1;
                // Transfer states reserve the departing slot (model
                // boundary: q_{Q->Q-1} loses arrivals).
                let room = if self.in_transfer {
                    self.capacity - 1
                } else {
                    self.capacity
                };
                if self.queue.len() < room {
                    self.queue.push_back(self.time);
                } else {
                    self.lost += 1;
                }
                self.next_arrival = if self.arrivals < self.config.max_requests {
                    let time = self.time;
                    self.workload
                        .next_interarrival(&mut self.rng)
                        .map(|gap| time + gap)
                } else {
                    None
                };
                self.arrivals_to_snapshot -= 1;
                if self.arrivals_to_snapshot == 0 {
                    self.arrivals_to_snapshot = self.snapshot_every;
                    self.snapshots.push(Snapshot {
                        time: self.time,
                        energy: self.occupancy_energy + self.switch_energy,
                        completed: self.completed,
                        sojourn_sum: self.sojourn_sum,
                    });
                }
                self.last_event = SimEvent::Arrival;
            }
            NextEvent::Service => {
                // A service completion is only ever scheduled while the
                // queue is non-empty (checked in the race above), so the
                // `if let` always takes the populated branch.
                if let Some(arrived) = self.queue.pop_front() {
                    self.sojourn_sum += self.time - arrived;
                    self.completed += 1;
                    self.in_transfer = true;
                    self.last_event = SimEvent::ServiceCompletion;
                }
            }
            NextEvent::Switch => {
                self.switch_energy += self.sp.switch_energy(self.mode, command.target);
                self.switches += 1;
                self.mode = command.target;
                self.in_transfer = false;
                self.last_event = SimEvent::SwitchComplete;
            }
            NextEvent::Timer => {
                self.last_event = SimEvent::TimerFired;
            }
        }

        if self.next_arrival.is_none() {
            if kind == NextEvent::Timer {
                self.drain_timer_streak += 1;
                if self.drain_timer_streak > 1_000 {
                    // The controller is idling on timers with work left
                    // (e.g. a policy that never wakes): stop the run.
                    self.finished = true;
                    return Ok(false);
                }
            } else {
                self.drain_timer_streak = 0;
            }
            if self.queue.is_empty() && !self.in_transfer {
                self.finished = true;
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Returns `true` once the run has ended (step returned `Ok(false)`).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Engine events processed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Borrows the controller driving this run (e.g. to read adaptive
    /// estimates or lookup counters mid-flight).
    #[must_use]
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Mutably borrows the controller driving this run.
    ///
    /// This is the hook for epoch-coordinated hot policy swap: the
    /// `dpm-serve` supervisor replaces a [`crate::controller::Controller`]'s
    /// shared policy `Arc` between steps, at a deterministic event-count
    /// barrier. Swapping controller internals mid-run is safe for
    /// determinism as long as the mutation itself is a deterministic
    /// function of the run's own progress (never of wall clock or shard
    /// scheduling).
    #[must_use]
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Finalizes the run into a [`SimReport`].
    ///
    /// Normally called once [`SimRun::step`] has returned `Ok(false)`;
    /// calling earlier reports the statistics accumulated so far.
    #[must_use]
    pub fn into_report(self) -> SimReport {
        let duration = self.time.max(f64::MIN_POSITIVE);
        let (power_ci, sojourn_ci) = batch_half_widths(
            &self.snapshots,
            Snapshot {
                time: self.time,
                energy: self.occupancy_energy + self.switch_energy,
                completed: self.completed,
                sojourn_sum: self.sojourn_sum,
            },
        );

        SimReport {
            policy: self.controller.name(),
            seed: self.config.seed,
            duration,
            occupancy_energy: self.occupancy_energy,
            switch_energy: self.switch_energy,
            queue_integral: self.queue_integral,
            arrivals: self.arrivals,
            completed: self.completed,
            lost: self.lost,
            switches: self.switches,
            sojourn_sum: self.sojourn_sum,
            consultations: self.consultations,
            events: self.events,
            power_ci,
            sojourn_ci,
        }
    }
}

/// ~95% batch-means half-widths for average power and average sojourn.
fn batch_half_widths(snapshots: &[Snapshot], end: Snapshot) -> (Option<f64>, Option<f64>) {
    let mut points: Vec<Snapshot> = snapshots.to_vec();
    if points.last().is_none_or(|s| s.time < end.time) {
        points.push(end);
    }
    if points.len() < 4 {
        return (None, None);
    }
    let mut power_means = Vec::new();
    let mut sojourn_means = Vec::new();
    let mut previous = Snapshot::default();
    for s in &points {
        let dt = s.time - previous.time;
        if dt > 0.0 {
            power_means.push((s.energy - previous.energy) / dt);
        }
        let dc = s.completed - previous.completed;
        if dc > 0 {
            sojourn_means.push((s.sojourn_sum - previous.sojourn_sum) / dc as f64);
        }
        previous = *s;
    }
    (half_width(&power_means), half_width(&sojourn_means))
}

fn half_width(batch_means: &[f64]) -> Option<f64> {
    let k = batch_means.len();
    if k < 4 {
        return None;
    }
    let mean = batch_means.iter().sum::<f64>() / k as f64;
    let var = batch_means
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / (k - 1) as f64;
    // t-quantile ~2 for ~20 batches.
    Some(2.0 * (var / k as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{
        AlwaysOnController, GreedyController, TableController, TimeoutController,
    };
    use crate::workload::{PoissonWorkload, TraceWorkload};
    use dpm_core::SpModel;

    fn sp() -> SpModel {
        SpModel::dac99_server().unwrap()
    }

    #[test]
    fn always_on_matches_mm1k_theory() {
        let lambda = 1.0 / 6.0;
        let report = Simulator::new(
            sp(),
            5,
            PoissonWorkload::new(lambda).unwrap(),
            AlwaysOnController::new(&sp()),
            SimConfig::new(1).max_requests(50_000),
        )
        .run()
        .unwrap();
        let theory = dpm_ctmc::birth_death::Mm1k::new(lambda, 1.0 / 1.5, 5).unwrap();
        assert!(
            (report.average_queue_length() - theory.mean_customers()).abs()
                < 0.05 * theory.mean_customers().max(0.1),
            "queue {} vs theory {}",
            report.average_queue_length(),
            theory.mean_customers()
        );
        assert!((report.average_power() - 40.0).abs() < 0.01);
        assert!(
            (report.average_waiting_time() - theory.mean_waiting_time()).abs()
                < 0.05 * theory.mean_waiting_time()
        );
        assert_eq!(report.arrivals(), 50_000);
        assert_eq!(report.arrivals(), report.completed() + report.lost());
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let run = || {
            Simulator::new(
                sp(),
                5,
                PoissonWorkload::new(0.2).unwrap(),
                GreedyController::new(&sp()).unwrap(),
                SimConfig::new(77).max_requests(5_000),
            )
            .run()
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stepped_run_matches_run_exactly() {
        let sim = |seed| {
            Simulator::new(
                sp(),
                5,
                PoissonWorkload::new(0.2).unwrap(),
                GreedyController::new(&sp()).unwrap(),
                SimConfig::new(seed).max_requests(2_000),
            )
        };
        let serial = sim(31).run().unwrap();
        let mut run = sim(31).start().unwrap();
        while run.step().unwrap() {}
        assert!(run.is_finished());
        assert_eq!(run.into_report(), serial);
    }

    #[test]
    fn optimal_q5_run_matches_golden_report() {
        // The served policy (optimal, w = 1, λ = 1/6, Q = 5) on one seeded
        // stream. Any change to the random words, the draw order, the
        // sampling or the event race moves these numbers; the batch
        // half-widths pin the arrivals the snapshots land on.
        let system = dpm_core::PmSystem::builder()
            .provider(sp())
            .requestor(dpm_core::SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(5)
            .build()
            .unwrap();
        let solution = dpm_core::optimize::optimal_policy(&system, 1.0).unwrap();
        let report = Simulator::new(
            sp(),
            5,
            PoissonWorkload::new(1.0 / 6.0).unwrap(),
            TableController::new(&system, solution.policy()).unwrap(),
            SimConfig::new(7).max_requests(2_000),
        )
        .run()
        .unwrap();
        assert_eq!(report.events(), 7_325);
        assert_eq!(report.arrivals(), 2_000);
        assert_eq!(report.switches(), 2_036);
        assert_eq!(report.completed(), 1_985);
        assert_eq!(report.lost(), 14);
        assert_eq!(report.duration().to_bits(), 0x40c6_f7b2_5dc9_1166);
        assert_eq!(report.total_energy().to_bits(), 0x4100_cb12_77ac_cb57);
        assert_eq!(
            report.power_half_width().map(f64::to_bits),
            Some(0x3fe5_c6c4_51b5_583d)
        );
        assert_eq!(
            report.waiting_half_width().map(f64::to_bits),
            Some(0x3fd3_242a_64ff_b7b0)
        );
    }

    #[test]
    fn interleaved_stepping_is_invariant_per_run() {
        // Step several independent runs round-robin in small batches (the
        // serve shard schedule) and check each report is bit-identical to
        // its serial run.
        let sim = |seed| {
            Simulator::new(
                sp(),
                5,
                PoissonWorkload::new(0.2).unwrap(),
                GreedyController::new(&sp()).unwrap(),
                SimConfig::new(seed).max_requests(1_000),
            )
        };
        let serial: Vec<_> = (10..14).map(|s| sim(s).run().unwrap()).collect();
        let mut runs: Vec<_> = (10..14).map(|s| sim(s).start().unwrap()).collect();
        let mut live = runs.len();
        while live > 0 {
            live = 0;
            for run in &mut runs {
                for _ in 0..64 {
                    if !run.step().unwrap() {
                        break;
                    }
                }
                if !run.is_finished() {
                    live += 1;
                }
            }
        }
        for (run, expected) in runs.into_iter().zip(&serial) {
            assert_eq!(&run.into_report(), expected);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            Simulator::new(
                sp(),
                5,
                PoissonWorkload::new(0.2).unwrap(),
                GreedyController::new(&sp()).unwrap(),
                SimConfig::new(seed).max_requests(5_000),
            )
            .run()
            .unwrap()
        };
        assert_ne!(run(1).average_power(), run(2).average_power());
    }

    #[test]
    fn greedy_saves_power_versus_always_on() {
        let config = SimConfig::new(3).max_requests(20_000);
        let on = Simulator::new(
            sp(),
            5,
            PoissonWorkload::new(1.0 / 6.0).unwrap(),
            AlwaysOnController::new(&sp()),
            config,
        )
        .run()
        .unwrap();
        let greedy = Simulator::new(
            sp(),
            5,
            PoissonWorkload::new(1.0 / 6.0).unwrap(),
            GreedyController::new(&sp()).unwrap(),
            config,
        )
        .run()
        .unwrap();
        assert!(greedy.average_power() < on.average_power());
        assert!(greedy.average_waiting_time() > on.average_waiting_time());
        assert!(greedy.switches() > 0);
    }

    #[test]
    fn timeout_interpolates_between_greedy_and_always_on() {
        let config = SimConfig::new(4).max_requests(20_000);
        let power_of = |timeout| {
            Simulator::new(
                sp(),
                5,
                PoissonWorkload::new(1.0 / 6.0).unwrap(),
                TimeoutController::new(&sp(), timeout, 2).unwrap(),
                config,
            )
            .run()
            .unwrap()
            .average_power()
        };
        let immediate = power_of(0.0);
        let medium = power_of(6.0);
        let lazy = power_of(60.0);
        assert!(immediate < medium, "{immediate} !< {medium}");
        assert!(medium < lazy, "{medium} !< {lazy}");
    }

    #[test]
    fn trace_workload_drains_and_ends() {
        let report = Simulator::new(
            sp(),
            5,
            TraceWorkload::new(vec![1.0, 1.0, 1.0]).unwrap(),
            AlwaysOnController::new(&sp()),
            SimConfig::new(5),
        )
        .run()
        .unwrap();
        assert_eq!(report.arrivals(), 3);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.lost(), 0);
        assert!(report.duration() >= 3.0);
    }

    #[test]
    fn max_time_cuts_the_run() {
        let report = Simulator::new(
            sp(),
            5,
            PoissonWorkload::new(0.5).unwrap(),
            AlwaysOnController::new(&sp()),
            SimConfig::new(6).max_requests(1_000_000).max_time(100.0),
        )
        .run()
        .unwrap();
        assert!((report.duration() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn losses_happen_under_overload() {
        // Arrivals far faster than service: the finite queue must drop.
        let report = Simulator::new(
            sp(),
            2,
            PoissonWorkload::new(10.0).unwrap(),
            AlwaysOnController::new(&sp()),
            SimConfig::new(7).max_requests(5_000),
        )
        .run()
        .unwrap();
        assert!(report.lost() > 0);
        assert!(report.loss_fraction() > 0.5);
    }

    #[test]
    fn invalid_initial_mode_is_rejected() {
        let result = Simulator::new(
            sp(),
            5,
            PoissonWorkload::new(0.2).unwrap(),
            AlwaysOnController::new(&sp()),
            SimConfig::new(8).initial_mode(9),
        )
        .run();
        assert!(matches!(result, Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let result = Simulator::new(
            sp(),
            0,
            PoissonWorkload::new(0.2).unwrap(),
            AlwaysOnController::new(&sp()),
            SimConfig::new(9),
        )
        .run();
        assert!(matches!(result, Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn confidence_intervals_appear_on_long_runs() {
        let report = Simulator::new(
            sp(),
            5,
            PoissonWorkload::new(1.0 / 6.0).unwrap(),
            AlwaysOnController::new(&sp()),
            SimConfig::new(10).max_requests(20_000),
        )
        .run()
        .unwrap();
        let hw = report.power_half_width().expect("20 batches collected");
        assert!(hw > 0.0 && hw < 1.0);
        assert!(report.waiting_half_width().is_some());
    }
}
