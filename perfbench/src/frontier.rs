//! `frontier`: the paper's power/delay trade-off, swept past its Q = 5.
//!
//! The paper's server (`SpModel::dac99_server`, λ = 1/6) at each capacity
//! is solved by policy iteration at log-spaced weights on delay, one
//! `dpm_harness::solve` plan task per point. A point that fails is an
//! outcome of the run, not an abort: it is counted, and its capacity,
//! weight and message are reported.

use dpm_bench::timed;
use dpm_core::{optimize, PmPolicy, PmSystem, SpModel, SrModel};
use dpm_ctmc::stationary;
use dpm_harness::plan::PlanPoint;
use dpm_harness::solve::{run_solve_plan, SolvePlan};
use dpm_mdp::{average, lp, Ctmdp, Policy};

use crate::span::{Recorder, Trace};
use crate::stats::{median, percentile, Ops};
use crate::{positive, Check, Error, Metrics, Size, Traced, Unit};

/// Arrival rate of the paper's Section V workload.
const LAMBDA: f64 = 1.0 / 6.0;

/// Solve-plan workers: load stays within 2 threads, so a 2-core machine
/// measures the same work as a larger one.
const WORKERS: usize = 2;

/// Relative agreement required between policy iteration and the LP.
const LP_TOL: f64 = 1e-8;

/// Relative agreement required between policy iteration's gain and
/// `stationary::gain_vector` on the same policy.
const GAIN_TOL: f64 = 1e-8;

/// Largest constraint violation for which an LP solution counts as a
/// reference: its occupation measure must be a distribution that balances
/// flow in every state.
const LP_FEASIBILITY_TOL: f64 = 1e-9;

/// The solved frontier point's observable outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// The optimal policy's destination mode in every SYS state.
    pub destinations: Vec<usize>,
    /// Long-run power.
    pub power: f64,
    /// Long-run queue length.
    pub queue: f64,
}

/// One frontier point's outcome and time to outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Queue capacity Q.
    pub capacity: usize,
    /// Weight on delay.
    pub weight: f64,
    /// Seconds from task start to outcome, failed points included.
    pub wall_s: f64,
    /// The solution, or the solver's message.
    pub outcome: Result<Solved, String>,
}

/// One pass over every frontier point.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Points in plan order.
    pub points: Vec<Point>,
    /// Wall time of the whole plan.
    pub wall_s: f64,
}

impl Unit for Batch {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn ops(&self) -> Ops {
        let mut ops = Ops::default();
        for p in &self.points {
            ops.record(p.outcome.is_ok());
        }
        ops
    }

    /// Points solved.
    fn work(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let solved = self.ops().succeeded() as f64;
        solved
    }

    /// Failed points as `Q=.. w=..: message`.
    fn failures(&self) -> Vec<String> {
        self.points
            .iter()
            .filter_map(|p| {
                p.outcome
                    .as_ref()
                    .err()
                    .map(|e| format!("Q={} w={}: {e}", p.capacity, p.weight))
            })
            .collect()
    }
}

/// The set-up `frontier` workload: systems built and the plan laid out.
#[derive(Debug, Clone)]
pub struct Frontier {
    systems: Vec<PmSystem>,
    /// `(system index, weight)` of every plan point, in plan order.
    grid: Vec<(usize, f64)>,
    plan: SolvePlan,
}

/// What the traced decomposition of one point measured.
#[derive(Debug, Clone, PartialEq)]
struct TracedPoint {
    solved: Solved,
    policy: Policy,
    gain: f64,
    ctmdp_nnz: u64,
    pi_rounds: u64,
    actions_changed: u64,
    eval_s: f64,
    eval_residual: f64,
}

impl Frontier {
    /// Builds one paper system per capacity and the sweep plan. The seed
    /// is the plan's root seed; the points themselves are fixed.
    ///
    /// # Errors
    ///
    /// Propagates model construction failures.
    pub fn setup(size: Size, seed: u64) -> Result<Frontier, Error> {
        let (capacities, n_weights): (&[usize], usize) = match size {
            Size::Full => (&[20, 50, 100], 34),
            Size::Tiny => (&[5, 8], 50),
        };
        let mut systems = Vec::with_capacity(capacities.len());
        let mut grid = Vec::new();
        let mut plan = SolvePlan::new("frontier", seed);
        for (s, &capacity) in capacities.iter().enumerate() {
            systems.push(
                PmSystem::builder()
                    .provider(SpModel::dac99_server()?)
                    .requestor(SrModel::poisson(LAMBDA)?)
                    .capacity(capacity)
                    .build()?,
            );
            for i in 0..n_weights {
                let weight = log_weight(i, n_weights);
                grid.push((s, weight));
                plan = plan.point(
                    PlanPoint::new(format!("Q={capacity} w={weight}"))
                        .with("capacity", capacity)
                        .with("weight", weight),
                );
            }
        }
        Ok(Frontier {
            systems,
            grid,
            plan,
        })
    }

    fn point(&self, index: usize) -> Result<(&PmSystem, f64), String> {
        self.grid
            .get(index)
            .and_then(|&(s, w)| self.systems.get(s).map(|system| (system, w)))
            .ok_or_else(|| format!("plan index {index} outside the grid"))
    }

    /// Solves every point with `optimize::optimal_policy` on the plan
    /// pool: the untraced unit of work.
    ///
    /// # Errors
    ///
    /// Returns an error only if the plan itself cannot run.
    pub fn batch(&self) -> Result<Batch, Error> {
        let (records, wall_s) = timed(|| {
            run_solve_plan(&self.plan, WORKERS, |ctx| {
                Ok(self.point(ctx.index).and_then(|(system, weight)| {
                    let solution =
                        optimize::optimal_policy(system, weight).map_err(|e| e.to_string())?;
                    Ok(Solved {
                        destinations: solution.policy().destinations().to_vec(),
                        power: solution.metrics().power(),
                        queue: solution.metrics().queue_length(),
                    })
                }))
            })
        });
        let points = records?
            .into_iter()
            .map(|r| self.outcome(r.index, r.wall_secs, r.output))
            .collect();
        Ok(Batch { points, wall_s })
    }

    fn outcome(&self, index: usize, wall_s: f64, outcome: Result<Solved, String>) -> Point {
        let (capacity, weight) = self
            .point(index)
            .map_or((0, f64::NAN), |(system, w)| (system.capacity(), w));
        Point {
            capacity,
            weight,
            wall_s,
            outcome,
        }
    }

    /// The untraced run's checks: every batch solved the same frontier,
    /// power rises and queue length falls with the weight at each
    /// capacity, and policy iteration's optimal cost matches the LP's at
    /// every solved point of the smallest capacity.
    ///
    /// # Errors
    ///
    /// Propagates model failures while posing the LP.
    pub fn checks(&self, batches: &[Batch]) -> Result<Vec<Check>, Error> {
        let Some(first) = batches.first() else {
            return Ok(vec![Check::new("frontier.batches", false, "no batch ran")]);
        };
        let repeat = batches
            .iter()
            .all(|b| same_outcomes(&b.points, &first.points));
        let mut checks = vec![
            Check::new(
                "frontier.deterministic",
                repeat,
                format!("{} batches solved identical frontiers", batches.len()),
            ),
            self.monotone(first),
        ];
        checks.extend(self.lp_agreement(first)?);
        Ok(checks)
    }

    fn monotone(&self, batch: &Batch) -> Check {
        let mut violations = Vec::new();
        for system in &self.systems {
            let solved: Vec<(f64, &Solved)> = batch
                .points
                .iter()
                .filter(|p| p.capacity == system.capacity())
                .filter_map(|p| p.outcome.as_ref().ok().map(|s| (p.weight, s)))
                .collect();
            for pair in solved.windows(2) {
                let [(w0, a), (w1, b)] = pair else { continue };
                let slack = 1e-9;
                if b.power < a.power - slack * a.power.abs().max(1.0)
                    || b.queue > a.queue + slack * a.queue.abs().max(1.0)
                {
                    violations.push(format!("Q={} w={w0}->{w1}", system.capacity()));
                }
            }
        }
        Check::new(
            "frontier.monotone_in_weight",
            violations.is_empty(),
            if violations.is_empty() {
                "power non-decreasing, queue non-increasing at every capacity".to_owned()
            } else {
                format!("violated at {}", violations.join(", "))
            },
        )
    }

    /// Policy iteration against `dpm_mdp::lp::solve_average` at every
    /// solved point of the smallest capacity. An LP that errors, or whose
    /// occupation measure violates the LP's own constraints, is no
    /// reference; such points are reported, and the comparison is made
    /// at the rest. The check fails when no point is left to compare.
    fn lp_agreement(&self, batch: &Batch) -> Result<Vec<Check>, Error> {
        let Some(system) = self.systems.first() else {
            return Ok(Vec::new());
        };
        let mut compared = 0usize;
        let mut worst_gap = 0.0f64;
        let mut disagree = Vec::new();
        let mut unavailable = Vec::new();
        for p in &batch.points {
            let Ok(solved) = &p.outcome else { continue };
            if p.capacity != system.capacity() {
                continue;
            }
            let mdp = system.ctmdp(p.weight)?;
            let reference = match lp::solve_average(&mdp) {
                Ok(reference) => reference,
                Err(e) => {
                    unavailable.push(format!("w={} ({e})", p.weight));
                    continue;
                }
            };
            let violation = occupation_violation(&mdp, reference.occupation());
            if violation > LP_FEASIBILITY_TOL {
                unavailable.push(format!("w={} (violation {violation:.2e})", p.weight));
                continue;
            }
            let pi_cost = solved.power + p.weight * solved.queue;
            let gap = (pi_cost - reference.average_cost()).abs()
                / reference.average_cost().abs().max(f64::MIN_POSITIVE);
            compared += 1;
            worst_gap = worst_gap.max(gap);
            if gap > LP_TOL {
                disagree.push(format!("w={} (gap {gap:.2e})", p.weight));
            }
        }
        let q = system.capacity();
        Ok(vec![
            Check::new(
                "frontier.pi_matches_lp",
                compared > 0 && disagree.is_empty(),
                format!(
                    "Q={q}: {compared} points compared, worst relative gap {worst_gap:.2e}{}",
                    if disagree.is_empty() {
                        String::new()
                    } else {
                        format!("; disagree at {}", disagree.join(", "))
                    }
                ),
            ),
            // Recorded, never gating: where the LP errors or returns an
            // occupation measure that breaks its own constraints, the
            // reference is defective and says nothing about the solver
            // under test.
            Check::new(
                "frontier.lp_reference_unavailable",
                true,
                format!(
                    "Q={q}: no valid LP reference at {} points{}",
                    unavailable.len(),
                    if unavailable.is_empty() {
                        String::new()
                    } else {
                        format!(": {}", unavailable.join(", "))
                    }
                ),
            ),
        ])
    }

    /// The traced run's frontier part: one untraced plan for the harness
    /// metrics, then every point decomposed into its layer calls
    /// (`ctmdp` → `policy_iteration_multichain` → `from_mdp_policy` →
    /// `evaluate`, plus `gain_vector` on the final policy), each in a span.
    ///
    /// # Errors
    ///
    /// Returns an error only if a plan cannot run.
    pub fn trace(&self, trace: &mut Trace, layers: &mut Metrics) -> Result<Traced, Error> {
        let untraced = self.batch()?;
        let (records, traced_wall_s) =
            timed(|| run_solve_plan(&self.plan, WORKERS, |ctx| Ok(self.trace_point(ctx.index))));
        let records = records?;

        let mut ops = Ops::default();
        let mut nnz = 0u64;
        let mut rounds = 0u64;
        let mut changed = 0u64;
        let mut eval_s = 0.0;
        let mut residual_max = 0.0f64;
        let mut decomposition_matches = records.len() == untraced.points.len();
        let mut solved = Vec::new();
        for (record, reference) in records.into_iter().zip(&untraced.points) {
            let (point_trace, outcome) = record.output;
            trace.append(point_trace);
            ops.record(outcome.is_ok());
            match (&outcome, &reference.outcome) {
                (Ok(t), Ok(r)) => {
                    decomposition_matches &= t.solved.destinations == r.destinations
                        && t.solved.power.to_bits() == r.power.to_bits();
                }
                (Err(_), Err(_)) => {}
                _ => decomposition_matches = false,
            }
            if let Ok(t) = outcome {
                nnz += t.ctmdp_nnz;
                rounds += t.pi_rounds;
                changed += t.actions_changed;
                eval_s += t.eval_s;
                residual_max = residual_max.max(t.eval_residual);
                solved.push((record.index, t.policy, t.gain));
            }
        }
        let gains = self.gain_pass(trace, &solved)?;

        let walls: Vec<f64> = untraced.points.iter().map(|p| p.wall_s).collect();
        let busy: f64 = walls.iter().sum();
        #[allow(clippy::cast_precision_loss)]
        let busy_frac = busy / (WORKERS as f64 * positive(untraced.wall_s));
        layers.push("harness.plan_wall_s", "s", untraced.wall_s);
        layers.push("harness.worker_busy_frac", "ratio", busy_frac);
        layers.push("harness.solve_p50_s", "s", median(&walls)?);
        layers.push("harness.solve_p90_s", "s", percentile(&walls, 0.9)?);
        layers.push(
            "harness.point_self_s",
            "s",
            trace.total_self_s("harness.point"),
        );
        layers.push("core.ctmdp_s", "s", trace.total_s("core.ctmdp"));
        layers.push("core.evaluate_s", "s", trace.total_s("core.evaluate"));
        layers.count("core.ctmdp_nnz", nnz);
        let pi_s = trace.total_s("mdp.policy_iteration");
        layers.push("mdp.pi_s", "s", pi_s);
        layers.push("mdp.eval_s", "s", eval_s);
        layers.push("mdp.improve_s", "s", pi_s - eval_s);
        layers.count("mdp.pi_rounds", rounds);
        layers.count("mdp.actions_changed", changed);
        layers.push("mdp.eval_residual_max", "1", residual_max);
        layers.push("ctmc.gain_vector_s", "s", trace.total_s("ctmc.gain_vector"));

        let mut checks = vec![
            Check::new(
                "frontier.traced_decomposition_matches",
                decomposition_matches,
                "ctmdp -> policy_iteration_multichain -> from_mdp_policy -> evaluate gives \
                 optimal_policy's policy and power bits at every point",
            ),
            gains,
        ];
        checks.extend(self.checks(std::slice::from_ref(&untraced))?);
        Ok(Traced {
            untraced_wall_s: untraced.wall_s,
            traced_wall_s,
            ops,
            checks,
            failures: untraced.failures(),
        })
    }

    /// `stationary::gain_vector` on every solved point's final policy, in
    /// one serial pass after the plan so the traced plan holds exactly the
    /// calls `optimal_policy` makes. Its gain from the initial state must
    /// match policy iteration's.
    fn gain_pass(
        &self,
        trace: &mut Trace,
        solved: &[(usize, Policy, f64)],
    ) -> Result<Check, Error> {
        let mut worst = 0.0f64;
        let mut errors = Vec::new();
        let mut rec = Recorder::new(trace);
        rec.span("ctmc.gain_pass", |rec| -> Result<(), Error> {
            for (index, policy, pi_gain) in solved {
                let (system, weight) = self.point(*index)?;
                let mdp = system.ctmdp(weight)?;
                let generator = mdp.generator_for(policy)?;
                let costs = mdp.cost_rates_for(policy)?;
                match rec.leaf("ctmc.gain_vector", || {
                    stationary::gain_vector(&generator, &costs)
                }) {
                    Ok(gains) => {
                        let gain = gains.get(system.initial_state_index()).unwrap_or(f64::NAN);
                        worst = worst.max((gain - pi_gain).abs() / pi_gain.abs().max(1.0));
                    }
                    Err(e) => errors.push(format!("Q={} w={weight}: {e}", system.capacity())),
                }
            }
            Ok(())
        })?;
        Ok(Check::new(
            "frontier.gain_vector_matches_pi",
            errors.is_empty() && worst <= GAIN_TOL,
            format!(
                "{} policies, worst relative gap {worst:.2e}{}",
                solved.len(),
                if errors.is_empty() {
                    String::new()
                } else {
                    format!("; failed at {}", errors.join(", "))
                }
            ),
        ))
    }

    fn trace_point(&self, index: usize) -> (Trace, Result<TracedPoint, String>) {
        let mut trace = Trace::new();
        let outcome = Recorder::new(&mut trace).span("harness.point", |rec| {
            let (system, weight) = self.point(index)?;
            decompose(rec, system, weight)
        });
        (trace, outcome)
    }
}

/// `optimize::optimal_policy`, one public layer call at a time.
fn decompose(
    rec: &mut Recorder<'_>,
    system: &PmSystem,
    weight: f64,
) -> Result<TracedPoint, String> {
    let mdp = rec
        .leaf("core.ctmdp", || system.ctmdp(weight))
        .map_err(|e| e.to_string())?;
    let ctmdp_nnz = (0..mdp.n_states())
        .flat_map(|i| mdp.actions(i).iter().map(|a| a.rates().len() as u64))
        .sum();
    let initial = rec
        .leaf("core.initial_policy", || {
            PmPolicy::always_on(system, fastest_active_mode(system)?)?.to_mdp_policy(system)
        })
        .map_err(|e| e.to_string())?;
    let solution = rec
        .leaf("mdp.policy_iteration", || {
            average::policy_iteration_multichain(&mdp, initial, &average::Options::default())
        })
        .map_err(|e| e.to_string())?;
    let policy = rec
        .leaf("core.from_mdp_policy", || {
            PmPolicy::from_mdp_policy(system, solution.policy())
        })
        .map_err(|e| e.to_string())?;
    let metrics = rec
        .leaf("core.evaluate", || system.evaluate(&policy))
        .map_err(|e| e.to_string())?;
    Ok(TracedPoint {
        solved: Solved {
            destinations: policy.destinations().to_vec(),
            power: metrics.power(),
            queue: metrics.queue_length(),
        },
        policy: solution.policy().clone(),
        gain: solution.gain_from(system.initial_state_index()),
        ctmdp_nnz,
        pi_rounds: solution.iterations() as u64,
        actions_changed: solution
            .improvement_deltas()
            .iter()
            .map(|&d| d as u64)
            .sum(),
        eval_s: solution.eval_timings().iter().sum(),
        eval_residual: solution.eval_residual(),
    })
}

/// The fastest active mode, where `optimal_policy` starts its iteration.
fn fastest_active_mode(system: &PmSystem) -> Result<usize, dpm_core::DpmError> {
    let sp = system.provider();
    sp.active_modes()
        .into_iter()
        .max_by(|&a, &b| sp.service_rate(a).total_cmp(&sp.service_rate(b)))
        .ok_or_else(|| dpm_core::DpmError::InvalidModel {
            reason: "provider has no active mode".to_owned(),
        })
}

/// Weight `i` of `n` log-spaced weights in 0.02–200.
fn log_weight(i: usize, n: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let t = i as f64 / (n.max(2) - 1) as f64;
    0.02 * 1e4f64.powf(t)
}

/// Whether two batches solved the same frontier: same policies and
/// power bits, and the same points failed.
fn same_outcomes(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| match (&x.outcome, &y.outcome) {
                (Ok(s), Ok(t)) => {
                    s.destinations == t.destinations && s.power.to_bits() == t.power.to_bits()
                }
                (Err(e), Err(f)) => e == f,
                _ => false,
            })
}

/// Largest violation of the average-cost LP's constraints by an
/// occupation measure `x[state][action]`: mass off 1, a negative entry,
/// or flow imbalance at a state relative to the flow through it.
fn occupation_violation(mdp: &Ctmdp, x: &[Vec<f64>]) -> f64 {
    let n = mdp.n_states();
    let mut inflow = vec![0.0; n];
    let mut outflow = vec![0.0; n];
    let mut mass = 0.0;
    let mut worst = 0.0f64;
    for (i, row) in x.iter().enumerate().take(n) {
        for (spec, &xv) in mdp.actions(i).iter().zip(row) {
            mass += xv;
            worst = worst.max(-xv);
            if let Some(out) = outflow.get_mut(i) {
                *out += xv * spec.exit_rate();
            }
            for &(j, rate) in spec.rates() {
                if let Some(inf) = inflow.get_mut(j) {
                    *inf += xv * rate;
                }
            }
        }
    }
    for (inf, out) in inflow.iter().zip(&outflow) {
        worst = worst.max((inf - out).abs() / out.abs().max(1.0));
    }
    worst.max((mass - 1.0).abs())
}
