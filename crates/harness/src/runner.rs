//! The experiment runner: plan × task function → per-task records.
//!
//! Two entry points share one execution engine:
//!
//! * [`run_plan`] — the strict path: every task must succeed, the first
//!   failure (in plan order) aborts the run with [`HarnessError::Task`].
//! * [`run_plan_resilient`] — the fault-tolerant path: each task attempt
//!   runs under `catch_unwind`, failures are retried up to
//!   [`RunConfig::max_attempts`] times with fresh-but-deterministic seeds
//!   (see [`crate::seed::derive_attempt_seed`]), and the run always
//!   completes, reporting a [`TaskOutcome`] per task. Completed tasks can
//!   be journaled incrementally ([`RunConfig::checkpoint`]) and a later
//!   run can skip them ([`RunConfig::resume`]) with bit-identical results.
//!
//! Each task gets a [`TaskCtx`] with its sweep point, derived seed and a
//! private telemetry [`Registry`]; the task returns its measurement as a
//! [`Json`] value. Records come back in plan order whatever the worker
//! count, and — because seeds derive from grid position and attempt
//! number, never from schedule — the deterministic parts of every record
//! are bit-identical across worker counts, retries and resumes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
// dpm-lint: allow(nondeterminism, reason = "per-task wall_secs is a wall-clock measurement; the artifact diff ignores it alongside the timers subtree")
use std::time::Instant;

use crate::checkpoint;
use crate::json::Json;
use crate::plan::{Plan, PlanPoint};
use crate::seed::derive_attempt_seed;
use crate::telemetry::Registry;
use crate::{pool, HarnessError};

/// Everything a task may depend on.
#[derive(Debug)]
pub struct TaskCtx<'a> {
    /// The sweep point this task belongs to.
    pub point: &'a PlanPoint,
    /// Index of the sweep point in the plan.
    pub point_index: usize,
    /// Replication number within the point (0-based).
    pub replication: u64,
    /// The task's derived RNG seed (a function of grid position and
    /// attempt number only).
    pub seed: u64,
    /// Task-private telemetry; serialized into the task's record.
    pub telemetry: &'a Registry,
}

/// The successful outcome of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Index of the sweep point.
    pub point_index: usize,
    /// Replication number within the point.
    pub replication: u64,
    /// The derived seed of the attempt that succeeded.
    pub seed: u64,
    /// The task's measurement.
    pub result: Json,
    /// Snapshot of the task's telemetry registry (for the successful
    /// attempt only — failed attempts leave no telemetry behind).
    pub telemetry: Json,
    /// Wall-clock seconds the successful attempt took (volatile; ignored
    /// by the diff).
    pub wall_secs: f64,
    /// How many attempts the task used (1 = succeeded first try).
    pub attempts: u32,
}

impl TaskRecord {
    pub(crate) fn to_json(&self, plan: &Plan) -> Json {
        let mut node = Json::object();
        node.set("point", self.point_index);
        // dpm-lint: allow(slice_index, reason = "point_index was produced by plan.task_coordinates, < points.len() by construction")
        node.set("label", plan.points()[self.point_index].label());
        node.set("replication", self.replication);
        node.set("seed", self.seed);
        node.set("status", "ok");
        node.set("attempts", u64::from(self.attempts));
        node.set("result", self.result.clone());
        node.set("telemetry", self.telemetry.clone());
        node.set("wall_secs", Json::num(self.wall_secs));
        node
    }
}

/// A task that failed every attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFailure {
    /// Flat index of the task in plan order.
    pub index: usize,
    /// Index of the sweep point.
    pub point_index: usize,
    /// Replication number within the point.
    pub replication: u64,
    /// The derived seed of the final attempt.
    pub seed: u64,
    /// The final attempt's error (panic message or task `Err`).
    pub error: String,
    /// How many attempts were made before giving up.
    pub attempts: u32,
}

impl TaskFailure {
    pub(crate) fn to_json(&self, plan: &Plan) -> Json {
        let mut node = Json::object();
        node.set("point", self.point_index);
        // dpm-lint: allow(slice_index, reason = "point_index was produced by plan.task_coordinates, < points.len() by construction")
        node.set("label", plan.points()[self.point_index].label());
        node.set("replication", self.replication);
        node.set("seed", self.seed);
        node.set("status", "failed");
        node.set("attempts", u64::from(self.attempts));
        node.set("error", self.error.as_str());
        node
    }
}

/// Per-task outcome of a resilient run.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome {
    /// The task produced a record (possibly after retries).
    Ok(TaskRecord),
    /// The task failed every attempt; the run continued without it.
    Failed(TaskFailure),
}

impl TaskOutcome {
    /// The record, when the task succeeded.
    #[must_use]
    pub fn record(&self) -> Option<&TaskRecord> {
        match self {
            TaskOutcome::Ok(record) => Some(record),
            TaskOutcome::Failed(_) => None,
        }
    }

    /// Whether the task succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }

    /// How many attempts the task used.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        match self {
            TaskOutcome::Ok(record) => record.attempts,
            TaskOutcome::Failed(failure) => failure.attempts,
        }
    }
}

/// What an injected fault does to a task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The attempt panics mid-task.
    Panic,
    /// The attempt returns a structured `Err`.
    Error,
}

/// Deterministic fault injection for tests and CI smoke runs.
///
/// Each entry sabotages the first `attempts` attempts of one task: with
/// `attempts = 1` the task fails once and succeeds on retry; with
/// `attempts = u32::MAX` it fails permanently. Faults trigger *inside*
/// the isolated task region, so an injected panic exercises exactly the
/// same recovery path a real one would.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    panics: Vec<(usize, u32)>,
    errors: Vec<(usize, u32)>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panics task `task` on its first `attempts` attempts.
    #[must_use]
    pub fn panic_on(mut self, task: usize, attempts: u32) -> FaultPlan {
        self.panics.push((task, attempts));
        self
    }

    /// Fails task `task` with a structured error on its first `attempts`
    /// attempts.
    #[must_use]
    pub fn error_on(mut self, task: usize, attempts: u32) -> FaultPlan {
        self.errors.push((task, attempts));
        self
    }

    /// Whether any fault is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.errors.is_empty()
    }

    fn arm(&self, task: usize, attempt: u32) -> Option<Fault> {
        let hit = |entries: &[(usize, u32)]| entries.iter().any(|&(t, n)| t == task && attempt < n);
        if hit(&self.panics) {
            Some(Fault::Panic)
        } else if hit(&self.errors) {
            Some(Fault::Error)
        } else {
            None
        }
    }
}

/// Configuration of a resilient run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads.
    pub workers: usize,
    /// Maximum attempts per task (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Injected faults (empty in production runs).
    pub faults: FaultPlan,
    /// Journal completed tasks to this path as they finish.
    pub checkpoint: Option<PathBuf>,
    /// Skip tasks already completed in this journal (or v2 artifact).
    pub resume: Option<PathBuf>,
}

impl RunConfig {
    /// A strict-equivalent configuration: no retries, no faults, no
    /// checkpointing.
    #[must_use]
    pub fn new(workers: usize) -> RunConfig {
        RunConfig {
            workers,
            max_attempts: 1,
            faults: FaultPlan::new(),
            checkpoint: None,
            resume: None,
        }
    }

    /// Sets the attempt budget per task (clamped to ≥ 1).
    #[must_use]
    pub fn max_attempts(mut self, attempts: u32) -> RunConfig {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Installs a fault-injection plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> RunConfig {
        self.faults = faults;
        self
    }

    /// Journals completed tasks to `path`.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> RunConfig {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resumes from a journal (or full artifact) at `path`.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> RunConfig {
        self.resume = Some(path.into());
        self
    }
}

/// The outcome of a resilient run: one [`TaskOutcome`] per task, in plan
/// order, plus how many were restored from a resume source.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-task outcomes in plan order.
    pub outcomes: Vec<TaskOutcome>,
    /// How many tasks were restored from the resume journal rather than
    /// executed.
    pub resumed: usize,
}

impl RunReport {
    /// The successful records, in plan order.
    #[must_use]
    pub fn records(&self) -> Vec<&TaskRecord> {
        self.outcomes
            .iter()
            .filter_map(TaskOutcome::record)
            .collect()
    }

    /// Converts to the strict contract: every task must have succeeded;
    /// the first failure in plan order becomes [`HarnessError::Task`].
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Task`] for the first failed task.
    pub fn into_records_strict(self, plan: &Plan) -> Result<Vec<TaskRecord>, HarnessError> {
        let mut records = Vec::with_capacity(self.outcomes.len());
        for outcome in self.outcomes {
            match outcome {
                TaskOutcome::Ok(record) => records.push(record),
                TaskOutcome::Failed(failure) => {
                    return Err(HarnessError::Task {
                        index: failure.index,
                        // dpm-lint: allow(slice_index, reason = "point_index was produced by plan.task_coordinates, < points.len() by construction")
                        label: plan.points()[failure.point_index].label().to_owned(),
                        message: failure.error,
                    });
                }
            }
        }
        Ok(records)
    }

    /// Count of successful tasks.
    #[must_use]
    pub fn n_ok(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// Count of permanently failed tasks.
    #[must_use]
    pub fn n_failed(&self) -> usize {
        self.outcomes.len() - self.n_ok()
    }

    /// Count of tasks that needed more than one attempt (succeeded or
    /// not).
    #[must_use]
    pub fn n_retried(&self) -> usize {
        self.outcomes.iter().filter(|o| o.attempts() > 1).count()
    }
}

/// Runs one task to completion or attempt exhaustion.
fn execute_task<F>(plan: &Plan, config: &RunConfig, task: &F, index: usize) -> TaskOutcome
where
    F: Fn(&TaskCtx<'_>) -> Result<Json, String> + Sync,
{
    let (point_index, replication) = plan.task_coordinates(index);
    let attempts = config.max_attempts.max(1);
    let mut last_error = String::new();
    let mut last_seed = 0u64;
    for attempt in 0..attempts {
        let seed = derive_attempt_seed(plan.root_seed(), point_index as u64, replication, attempt);
        last_seed = seed;
        let registry = Registry::new();
        let ctx = TaskCtx {
            // dpm-lint: allow(slice_index, reason = "point_index was produced by plan.task_coordinates, < points.len() by construction")
            point: &plan.points()[point_index],
            point_index,
            replication,
            seed,
            telemetry: &registry,
        };
        // dpm-lint: allow(nondeterminism, reason = "measures the task's wall_secs diagnostic; excluded from canonical artifact comparison")
        let start = Instant::now();
        // The fault trigger lives inside the unwind barrier so injected
        // panics take exactly the path a real one would.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match config.faults.arm(index, attempt) {
                Some(Fault::Panic) => {
                    // dpm-lint: allow(no_panic, reason = "fault injection: the test fixture must panic through the same unwind path a real bug would")
                    panic!("injected panic: task {index} attempt {attempt}")
                }
                Some(Fault::Error) => {
                    return Err(format!("injected error: task {index} attempt {attempt}"));
                }
                None => {}
            }
            task(&ctx)
        }))
        .unwrap_or_else(|payload| Err(pool::panic_message(payload.as_ref())));
        let wall_secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok(result) => {
                return TaskOutcome::Ok(TaskRecord {
                    point_index,
                    replication,
                    seed,
                    result,
                    telemetry: registry.snapshot(),
                    wall_secs,
                    attempts: attempt + 1,
                });
            }
            Err(message) => last_error = message,
        }
    }
    TaskOutcome::Failed(TaskFailure {
        index,
        point_index,
        replication,
        seed: last_seed,
        error: last_error,
        attempts,
    })
}

/// Runs every task of `plan` under the fault-tolerant contract.
///
/// Panicking or erroring tasks are retried up to `config.max_attempts`
/// times with deterministic per-attempt seeds; a task that exhausts its
/// budget becomes [`TaskOutcome::Failed`] and the run continues. With
/// [`RunConfig::checkpoint`] set, completed tasks are journaled as they
/// finish; with [`RunConfig::resume`] set, tasks already completed in the
/// journal (or a schema-v2 artifact) are restored instead of re-executed
/// — bit-identical to an uninterrupted run.
///
/// # Errors
///
/// Returns [`HarnessError::InvalidPlan`] for an empty plan,
/// [`HarnessError::Checkpoint`] for an unusable resume source, and
/// propagates journal I/O failures. Task failures do *not* error the
/// run; they are reported per-task in the [`RunReport`].
pub fn run_plan_resilient<F>(
    plan: &Plan,
    config: &RunConfig,
    task: F,
) -> Result<RunReport, HarnessError>
where
    F: Fn(&TaskCtx<'_>) -> Result<Json, String> + Sync,
{
    if plan.points().is_empty() {
        return Err(HarnessError::InvalidPlan {
            reason: format!("plan `{}` has no sweep points", plan.name()),
        });
    }

    // Load the resume source before opening the checkpoint journal: the
    // two may be the same file, and creating the journal truncates it.
    let restored: BTreeMap<usize, TaskRecord> = match &config.resume {
        Some(path) => checkpoint::load_completed(path, plan)?,
        None => BTreeMap::new(),
    };

    let journal = match &config.checkpoint {
        // Restored tasks are part of this run's completed set; carrying
        // them forward keeps the new journal self-contained.
        Some(path) => Some(checkpoint::create(path, plan, &restored)?),
        None => None,
    };

    let pending: Vec<usize> = (0..plan.n_tasks())
        .filter(|index| !restored.contains_key(index))
        .collect();
    let computed = pool::run(pending.len(), config.workers, |slot| {
        // dpm-lint: allow(slice_index, reason = "pool::run hands out slot < n_tasks == pending.len()")
        let index = pending[slot];
        let outcome = execute_task(plan, config, &task, index);
        if let (Some(journal), TaskOutcome::Ok(record)) = (&journal, &outcome) {
            journal.append(&checkpoint::entry(index, record))?;
        }
        Ok(outcome)
    });
    // A checkpoint was explicitly requested; a silently broken journal
    // would defeat its purpose, so the first failed append fails the run.
    let computed = computed
        .into_iter()
        .collect::<Result<Vec<TaskOutcome>, HarnessError>>()?;

    let resumed = restored.len();
    let mut restored = restored;
    let mut computed = computed.into_iter();
    let outcomes = (0..plan.n_tasks())
        .map(|index| match restored.remove(&index) {
            Some(record) => TaskOutcome::Ok(record),
            None => computed
                .next()
                // dpm-lint: allow(no_panic, reason = "structural invariant: pool::run returns exactly one outcome per pending index")
                .expect("one computed outcome per pending task"),
        })
        .collect();
    Ok(RunReport { outcomes, resumed })
}

/// Runs every task of `plan` on `workers` threads under the strict
/// contract: any failure aborts the run.
///
/// `task` is called once per (point, replication) pair and returns the
/// task's measurement; a `String` error (or a panic) aborts the run with
/// the first failing task in plan order.
///
/// # Errors
///
/// Returns [`HarnessError::InvalidPlan`] for an empty plan and
/// [`HarnessError::Task`] if any task fails.
pub fn run_plan<F>(plan: &Plan, workers: usize, task: F) -> Result<Vec<TaskRecord>, HarnessError>
where
    F: Fn(&TaskCtx<'_>) -> Result<Json, String> + Sync,
{
    run_plan_resilient(plan, &RunConfig::new(workers), task)?.into_records_strict(plan)
}

/// Convenience view over the records of one sweep point.
#[must_use]
pub fn records_for_point(records: &[TaskRecord], point: usize) -> Vec<&TaskRecord> {
    records.iter().filter(|r| r.point_index == point).collect()
}

/// Mean of a numeric field of `result` across a point's replications.
///
/// Returns `None` if any record lacks the field or it is non-numeric.
#[must_use]
pub fn mean_of(records: &[TaskRecord], point: usize, field: &str) -> Option<f64> {
    let selected = records_for_point(records, point);
    if selected.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    for record in &selected {
        sum += record.result.get(field)?.as_f64()?;
    }
    #[allow(clippy::cast_precision_loss)]
    Some(sum / selected.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanPoint;
    use crate::seed::derive_seed;

    fn plan() -> Plan {
        Plan::new("unit", 11)
            .replications(3)
            .point(PlanPoint::new("a").with("x", 1.0))
            .point(PlanPoint::new("b").with("x", 2.0))
    }

    fn task(ctx: &TaskCtx<'_>) -> Result<Json, String> {
        ctx.telemetry.incr("calls", 1);
        let x = ctx.point.param("x").unwrap().as_f64().unwrap();
        let mut out = Json::object();
        // A "measurement" that depends only on the derived seed and point.
        #[allow(clippy::cast_precision_loss)]
        out.set("value", x * (ctx.seed % 1000) as f64);
        Ok(out)
    }

    #[test]
    fn records_come_back_in_plan_order() {
        let p = plan();
        let records = run_plan(&p, 4, task).unwrap();
        assert_eq!(records.len(), 6);
        for (i, r) in records.iter().enumerate() {
            let (point, rep) = p.task_coordinates(i);
            assert_eq!((r.point_index, r.replication), (point, rep));
            assert_eq!(r.seed, p.task_seed(i));
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let p = plan();
        let strip = |records: Vec<TaskRecord>| {
            records
                .into_iter()
                .map(|r| (r.point_index, r.replication, r.seed, r.result))
                .collect::<Vec<_>>()
        };
        let serial = strip(run_plan(&p, 1, task).unwrap());
        for workers in [2, 4, 16] {
            assert_eq!(strip(run_plan(&p, workers, task).unwrap()), serial);
        }
    }

    #[test]
    fn telemetry_is_per_task() {
        let records = run_plan(&plan(), 2, task).unwrap();
        for r in &records {
            assert_eq!(
                r.telemetry.get("counters").unwrap().get("calls"),
                Some(&Json::Int(1))
            );
        }
    }

    #[test]
    fn task_failure_is_reported_with_label() {
        let err = run_plan(&plan(), 2, |ctx| {
            if ctx.point_index == 1 {
                Err("nope".to_owned())
            } else {
                Ok(Json::Null)
            }
        })
        .unwrap_err();
        match err {
            HarnessError::Task { index, label, .. } => {
                assert_eq!(index, 3);
                assert_eq!(label, "b");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn strict_path_reports_panics_as_task_errors() {
        let err = run_plan(&plan(), 2, |ctx| {
            assert!(ctx.point_index != 1, "point b blew up");
            Ok(Json::Null)
        })
        .unwrap_err();
        match err {
            HarnessError::Task { index, message, .. } => {
                assert_eq!(index, 3);
                assert!(message.contains("point b blew up"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn empty_plan_is_rejected() {
        let p = Plan::new("empty", 0);
        assert!(matches!(
            run_plan(&p, 1, task),
            Err(HarnessError::InvalidPlan { .. })
        ));
    }

    #[test]
    fn mean_of_averages_replications() {
        let p = plan();
        let records = run_plan(&p, 1, |_| {
            let mut out = Json::object();
            out.set("v", 2.0);
            Ok(out)
        })
        .unwrap();
        assert_eq!(mean_of(&records, 0, "v"), Some(2.0));
        assert_eq!(mean_of(&records, 0, "missing"), None);
        assert_eq!(mean_of(&records, 9, "v"), None);
        assert_eq!(records_for_point(&records, 1).len(), 3);
    }

    #[test]
    fn resilient_matches_strict_on_healthy_plans() {
        let p = plan();
        let strict = run_plan(&p, 2, task).unwrap();
        let report = run_plan_resilient(&p, &RunConfig::new(2).max_attempts(3), task).unwrap();
        assert_eq!(report.resumed, 0);
        assert_eq!(report.n_ok(), 6);
        assert_eq!(report.n_retried(), 0);
        let records: Vec<TaskRecord> = report.into_records_strict(&p).unwrap();
        let deterministic = |rs: &[TaskRecord]| {
            rs.iter()
                .map(|r| {
                    (
                        r.point_index,
                        r.replication,
                        r.seed,
                        r.result.clone(),
                        r.attempts,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(deterministic(&records), deterministic(&strict));
    }

    #[test]
    fn injected_error_retries_to_success_with_retry_seed() {
        let p = plan();
        let config = RunConfig::new(2)
            .max_attempts(2)
            .faults(FaultPlan::new().error_on(2, 1));
        let report = run_plan_resilient(&p, &config, task).unwrap();
        assert_eq!(report.n_ok(), 6);
        assert_eq!(report.n_retried(), 1);
        let record = report.outcomes[2].record().unwrap();
        assert_eq!(record.attempts, 2);
        let (point, rep) = p.task_coordinates(2);
        assert_eq!(
            record.seed,
            derive_attempt_seed(p.root_seed(), point as u64, rep, 1)
        );
        assert_ne!(record.seed, derive_seed(p.root_seed(), point as u64, rep));
    }

    #[test]
    fn injected_panic_is_isolated_and_other_tasks_are_bit_identical() {
        let p = plan();
        let clean = run_plan(&p, 2, task).unwrap();
        let config = RunConfig::new(2)
            .max_attempts(2)
            .faults(FaultPlan::new().panic_on(3, u32::MAX));
        let report = run_plan_resilient(&p, &config, task).unwrap();
        assert_eq!(report.n_ok(), 5);
        assert_eq!(report.n_failed(), 1);
        match &report.outcomes[3] {
            TaskOutcome::Failed(failure) => {
                assert_eq!(failure.index, 3);
                assert_eq!(failure.attempts, 2);
                assert!(
                    failure.error.contains("injected panic"),
                    "{}",
                    failure.error
                );
            }
            other => panic!("expected failure, got {other:?}"),
        }
        for (i, outcome) in report.outcomes.iter().enumerate() {
            if i == 3 {
                continue;
            }
            let record = outcome.record().unwrap();
            assert_eq!(
                (record.seed, &record.result),
                (clean[i].seed, &clean[i].result)
            );
        }
    }

    #[test]
    fn exhausted_retries_report_the_last_error() {
        let p = plan();
        let config = RunConfig::new(1)
            .max_attempts(3)
            .faults(FaultPlan::new().error_on(0, u32::MAX));
        let report = run_plan_resilient(&p, &config, task).unwrap();
        match &report.outcomes[0] {
            TaskOutcome::Failed(failure) => {
                assert_eq!(failure.attempts, 3);
                assert!(failure.error.contains("attempt 2"), "{}", failure.error);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn resilient_outcomes_are_schedule_independent() {
        let p = plan();
        let config = |workers| {
            RunConfig::new(workers)
                .max_attempts(2)
                .faults(FaultPlan::new().error_on(1, 1).panic_on(4, u32::MAX))
        };
        let serial = run_plan_resilient(&p, &config(1), task).unwrap();
        for workers in [2, 4, 16] {
            let parallel = run_plan_resilient(&p, &config(workers), task).unwrap();
            for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
                match (a, b) {
                    (TaskOutcome::Ok(ra), TaskOutcome::Ok(rb)) => {
                        assert_eq!(
                            (ra.seed, &ra.result, ra.attempts),
                            (rb.seed, &rb.result, rb.attempts)
                        );
                    }
                    (TaskOutcome::Failed(fa), TaskOutcome::Failed(fb)) => {
                        assert_eq!((fa.index, fa.attempts), (fb.index, fb.attempts));
                    }
                    other => panic!("outcome kinds diverged: {other:?}"),
                }
            }
        }
    }
}
